package face

import (
	"fmt"
	"math"

	"repro/internal/img"
)

// TrackState is the lifecycle state of a track.
type TrackState uint8

// Track lifecycle states.
const (
	// Tentative tracks have too few hits to be trusted yet.
	Tentative TrackState = iota
	// Confirmed tracks have been matched confirmHits times.
	Confirmed
	// Lost tracks have missed more than maxMisses consecutive Steps
	// and are about to be removed.
	Lost
)

// String names the state.
func (s TrackState) String() string {
	switch s {
	case Tentative:
		return "tentative"
	case Confirmed:
		return "confirmed"
	case Lost:
		return "lost"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Track is one tracked face.
type Track struct {
	// ID is the stable track identifier, assigned on creation.
	ID int
	// Box is the latest associated (or predicted) bounding box.
	Box img.Rect
	// State is the lifecycle state.
	State TrackState
	// Hits and Misses count consecutive association outcomes.
	Hits, Misses int
	// Age is the number of frames since creation.
	Age int

	kf *kalman
}

// TrackerOptions tune the tracker. Callers pass the zero value, which
// selects the calibrated defaults; the fields are seams for the
// package's tests.
type TrackerOptions struct {
	// maxDist is the gating distance in pixels: detections farther
	// than this from a track prediction can never match it (default 60).
	maxDist float64
	// confirmHits promotes a tentative track after this many total
	// hits (default 3).
	confirmHits int
	// maxMisses drops a track after this many consecutive Steps that
	// matched it no detection (default 10); Coasted frames do not count.
	maxMisses int
	// processNoise and measNoise parameterise the Kalman filters
	// (defaults 1.0 and 4.0).
	processNoise, measNoise float64
}

func (o TrackerOptions) withDefaults() TrackerOptions {
	if o.maxDist == 0 {
		o.maxDist = 60
	}
	if o.confirmHits == 0 {
		o.confirmHits = 3
	}
	if o.maxMisses == 0 {
		o.maxMisses = 10
	}
	if o.processNoise == 0 {
		o.processNoise = 1
	}
	if o.measNoise == 0 {
		o.measNoise = 4
	}
	return o
}

// Tracker maintains face tracks across frames: Kalman prediction,
// Hungarian association on centre distance, and track lifecycle
// management — the paper's "human face tracking" component.
type Tracker struct {
	opt    TrackerOptions
	tracks []*Track
	nextID int
}

// NewTracker returns an empty tracker.
func NewTracker(opt TrackerOptions) *Tracker {
	return &Tracker{opt: opt.withDefaults(), nextID: 1}
}

// Tracks returns the live tracks (tentative and confirmed).
func (tr *Tracker) Tracks() []*Track {
	out := make([]*Track, 0, len(tr.tracks))
	for _, t := range tr.tracks {
		if t.State != Lost {
			out = append(out, t)
		}
	}
	return out
}

// recentre keeps the box centred on the Kalman estimate while no
// detection pins it.
func (t *Track) recentre() {
	px, py := t.kf.pos()
	t.Box.X, t.Box.Y = int(px)-t.Box.W/2, int(py)-t.Box.H/2
}

// Coast advances one frame on which detection was not attempted: every
// track is predicted forward, re-centred on its estimate and aged, but
// no miss is counted — a frame the detector never looked at is no
// evidence the face is gone. Call it instead of Step off the detector's
// cadence; Step(nil) means "looked and found nothing".
func (tr *Tracker) Coast() {
	for _, t := range tr.tracks {
		t.kf.predict()
		t.Age++
		t.recentre()
	}
}

// Step advances one frame: predicts all tracks, associates the given
// detections, updates matched tracks, ages unmatched ones, and starts
// new tentative tracks for unmatched detections. It returns the tracks
// associated with each detection (aligned with dets; nil where the
// detection started a brand-new track this frame... which also is
// returned, so every entry is non-nil).
func (tr *Tracker) Step(dets []Detection) []*Track {
	// 1. Predict.
	for _, t := range tr.tracks {
		t.kf.predict()
		t.Age++
	}

	// 2. Associate confirmed+tentative tracks to detections by centre
	// distance with gating.
	live := tr.tracks
	assigned := make([]*Track, len(dets))
	const forbidden = math.MaxFloat64 / 8
	if len(live) > 0 && len(dets) > 0 {
		cost := make([][]float64, len(live))
		for i, t := range live {
			cost[i] = make([]float64, len(dets))
			px, py := t.kf.pos()
			for j, d := range dets {
				cx, cy := d.Box.Center()
				dist := math.Hypot(cx-px, cy-py)
				if dist > tr.opt.maxDist {
					cost[i][j] = forbidden
				} else {
					cost[i][j] = dist
				}
			}
		}
		match := hungarian(cost)
		for i, j := range match {
			if j < 0 || cost[i][j] >= forbidden {
				continue
			}
			t := live[i]
			d := dets[j]
			cx, cy := d.Box.Center()
			t.kf.update(cx, cy)
			t.Box = d.Box
			t.Hits++
			t.Misses = 0
			if t.State == Tentative && t.Hits >= tr.opt.confirmHits {
				t.State = Confirmed
			}
			assigned[j] = t
		}
	}

	// 3. Age unmatched tracks.
	matched := make(map[*Track]bool, len(dets))
	for _, t := range assigned {
		if t != nil {
			matched[t] = true
		}
	}
	keep := tr.tracks[:0]
	for _, t := range tr.tracks {
		if !matched[t] {
			t.Misses++
			t.recentre()
			if t.Misses > tr.opt.maxMisses ||
				(t.State == Tentative && t.Misses > 1) {
				t.State = Lost
				continue // dropped
			}
		}
		keep = append(keep, t)
	}
	tr.tracks = keep

	// 4. Spawn new tracks for unmatched detections.
	for j, d := range dets {
		if assigned[j] != nil {
			continue
		}
		cx, cy := d.Box.Center()
		t := &Track{
			ID:    tr.nextID,
			Box:   d.Box,
			State: Tentative,
			Hits:  1,
			kf:    newKalman(cx, cy, tr.opt.processNoise, tr.opt.measNoise),
		}
		tr.nextID++
		tr.tracks = append(tr.tracks, t)
		assigned[j] = t
	}
	return assigned
}
