package core

// Per-frame artifact stores (DESIGN.md §7). Artifacts is the
// per-(camera, frame) scratch flowing prepare → ordered; FrameArtifacts
// is the merged per-frame view flowing merge → frame stages. Both are
// typed structs rather than maps: consumers read fields directly, and
// the store stays allocation-light on the hot path. Which stage writes
// a field before which reads it is fixed by the stage list's order.

import (
	"repro/internal/face"
	"repro/internal/gaze"
	"repro/internal/img"
	"repro/internal/layers"
	"repro/internal/scene"
)

// Artifacts is the typed per-(camera, frame) artifact store.
type Artifacts struct {
	// Cam is the camera (stream) index.
	Cam int
	// FS is the frame's immutable simulator state.
	FS scene.FrameState

	// Gray is the rendered grayscale plane; pooled, released by the
	// engine after the ordered phase.
	Gray *img.Gray
	// Dets is the detection output; empty off-cadence.
	Dets []face.Detection
	// Tracks is the camera's live track set after this frame's tracker
	// step. It is live tracker state: only ordered stages may read it.
	Tracks []*face.Track
	// CamEmotions is the camera's person → emotion map.
	CamEmotions map[int]layers.EmotionObs
	// CamGaze is the lane's gaze observations (geometric vision
	// produces all observations in its single lane).
	CamGaze []gaze.Observation

	// release returns Gray to its renderer's pool.
	release func(*img.Gray)
	// scratch holds the owning worker's reusable integral tables; the
	// detect stage builds them on cadence frames, and they are only
	// valid during the prepare phase (the worker's next frame
	// overwrites them).
	scratch *integralScratch
	// err is the first stage failure; later stages are skipped and the
	// engine surfaces it from the ordered phase.
	err error
}

// integralScratch is one worker's reusable summed-area-table pair.
type integralScratch struct {
	in *img.Integral
	sq *img.IntegralSq
}

// FrameArtifacts is the merged per-frame artifact store.
type FrameArtifacts struct {
	// Index is the frame index.
	Index int
	// FS is the frame's immutable simulator state.
	FS scene.FrameState
	// PerCam are the camera stores in camera order (gray planes already
	// released).
	PerCam []*Artifacts
	// Emotions is the cross-camera fused person → emotion map.
	Emotions map[int]layers.EmotionObs
	// Obs is the frame's gaze-observation set.
	Obs []gaze.Observation
	// LookAt is the frame's look-at matrix (paper Fig. 4).
	LookAt gaze.Matrix
}
