package core

// Built-in stages (DESIGN.md §7): the geometric and pixel visions,
// the frame-serial analysis chain and the end-of-run stages, each a
// Stage over the shared artifact stores.
// graphVision at the bottom schedules a resolved graph onto the
// concurrent engine (engine.go).

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/emotion"
	"repro/internal/face"
	"repro/internal/gaze"
	"repro/internal/img"
	"repro/internal/layers"
	"repro/internal/metadata"
	"repro/internal/scene"
	"repro/internal/summarize"
	"repro/internal/video"
)

// Built-in stage names.
const (
	StageRender       = "render"
	StageDetect       = "detect"
	StageTrack        = "track"
	StageClassify     = "classify"
	StageGeoGaze      = "geo-gaze"
	StageGeoEmotion   = "geo-emotion"
	StageCollectGaze  = "collect-gaze"
	StagePxGaze       = "px-gaze"
	StageFuseEmotions = "fuse-emotions"
	StageGazeAnalysis = "gaze-analysis"
	StageMultilayer   = "multilayer"
	StageObservations = "observations"
	StageAttention    = "attention-span"
	StageDerived      = "derived-records"
	StageManifest     = "manifest"
	StageSummarize    = "summarize"
)

// --- pixel extraction stages ---

// renderStage renders each camera's view into a pooled gray plane.
func renderStage(b *stageBuild) (*Stage, error) {
	rends := make([]*video.Renderer, b.nCams)
	for c := 0; c < b.nCams; c++ {
		rends[c] = video.NewRenderer(b.sim, b.rig.Cameras[c], video.RenderOptions{})
	}
	return &Stage{
		Name:    StageRender,
		Version: 1,
		Phase:   PhasePrepare,
		// The text the run manifest has always hashed for the default
		// sensor.
		Config: fmt.Sprintf("render={NoiseSigma:0 LightDrift:0 LightPeriod:0 Background:0 TableTone:0} cams=%d", b.nCams),
		RunCam: func(_ *runEnv, a *Artifacts) error {
			r := rends[a.Cam]
			a.Gray = r.RenderStateInto(a.FS, r.AcquireFrame())
			a.release = r.ReleaseFrame
			return nil
		},
	}, nil
}

// onCadence reports whether camera cam runs its detector on frame
// index: every DetectEvery-th frame, staggered by camera so the
// per-frame cost stays flat.
func onCadence(index, cam, every int) bool { return (index+cam)%every == 0 }

// detectStage runs face detection on cadence frames, building the
// frame's summed-area tables into the worker's reusable scratch.
func detectStage(b *stageBuild) (*Stage, error) {
	det, err := face.NewDetector(face.DetectorOptions{})
	if err != nil {
		return nil, err
	}
	every := b.cfg.DetectEvery
	return &Stage{
		Name:    StageDetect,
		Version: 1,
		Phase:   PhasePrepare,
		Config:  fmt.Sprintf("every=%d", every),
		RunCam: func(_ *runEnv, a *Artifacts) error {
			if onCadence(a.FS.Index, a.Cam, every) {
				sc := a.scratch
				sc.in, sc.sq = img.BuildIntegrals(a.Gray, sc.in, sc.sq)
				a.Dets = det.DetectIntegrals(a.Gray, sc.in, sc.sq)
			}
			return nil
		},
	}, nil
}

// trackStage advances each camera's Kalman/Hungarian tracker: a full
// association step on the detector's cadence, a coast between — an
// off-cadence frame carries no detections because nobody looked, which
// must not count as a miss (at the default cadence of 3 it would kill
// every tentative track before its second detection). Ordered: trackers
// are stateful per camera.
func trackStage(b *stageBuild) (*Stage, error) {
	trackers := make([]*face.Tracker, b.nCams)
	for c := range trackers {
		trackers[c] = face.NewTracker(face.TrackerOptions{})
	}
	every := b.cfg.DetectEvery
	return &Stage{
		Name:    StageTrack,
		Version: 2,
		Phase:   PhaseOrdered,
		Config:  fmt.Sprintf("every=%d", every),
		RunCam: func(_ *runEnv, a *Artifacts) error {
			if onCadence(a.FS.Index, a.Cam, every) {
				trackers[a.Cam].Step(a.Dets)
			} else {
				trackers[a.Cam].Coast()
			}
			a.Tracks = trackers[a.Cam].Tracks()
			return nil
		},
	}, nil
}

// classifyStage crops each live track, recognises the face and
// classifies its emotion, fusing within the camera by confidence.
func classifyStage(b *stageBuild) (*Stage, error) {
	clf := b.cfg.Classifier
	var err error
	if clf == nil {
		clf, err = trainDefaultClassifier()
		if err != nil {
			return nil, err
		}
	}
	rec := face.NewRecognizer()
	nameToID := make(map[string]int)
	for _, p := range b.sim.Persons() {
		variant := uint64(p.ID)*7919 + 1
		for _, l := range []emotion.Label{emotion.Neutral, emotion.Happy, emotion.Sad} {
			crop := emotion.GenerateFace(l, variant, p.FaceTone)
			if err := rec.Enroll(p.Name, crop); err != nil {
				return nil, fmt.Errorf("enrolling %s: %w", p.Name, err)
			}
		}
		nameToID[p.Name] = p.ID
	}
	// Per-camera batching scratch: the frame's live-track crops are
	// collected first, identified under one gallery lock, and the
	// recognised ones classified in one batched network pass. Per-face
	// results are identical to the sequential path (the batched kernels
	// are bit-identical per sample and fusion still walks tracks in
	// order); the wins are one weight-matrix walk per frame instead of
	// per face, and crop buffers that recycle instead of reallocating.
	scr := make([]classifyScratch, b.nCams)
	return &Stage{
		Name:    StageClassify,
		Version: 1,
		Phase:   PhaseOrdered,
		Config:  fmt.Sprintf("classifier=%016x", clf.Fingerprint()),
		RunCam: func(_ *runEnv, a *Artifacts) error {
			emotions := make(map[int]layers.EmotionObs)
			sc := &scr[a.Cam]
			sc.reset()
			for _, tr := range a.Tracks {
				if tr.State != face.Confirmed && a.FS.Index > 5 {
					continue
				}
				sc.addCrop(a.Gray, clampBox(tr.Box, a.Gray))
			}
			sc.ids, sc.sims = rec.IdentifyBatch(sc.crops, sc.ids, sc.sims)
			for i, id := range sc.ids {
				if id == "" {
					continue // unknown face this frame
				}
				pid, ok := nameToID[id]
				if !ok {
					continue
				}
				sc.known = append(sc.known, sc.crops[i])
				sc.pids = append(sc.pids, pid)
			}
			// Every crop is non-empty and resized to the descriptor size,
			// so the only failure left is an untrained classifier, which
			// fails every face alike: surface it instead of running on
			// with no emotions.
			var err error
			if sc.labels, sc.confs, err = clf.ClassifyBatch(sc.known, sc.labels, sc.confs); err != nil {
				return err
			}
			for i, pid := range sc.pids {
				label, conf := sc.labels[i], sc.confs[i]
				// Within-camera fusion: keep the most confident reading.
				if cur, exists := emotions[pid]; !exists || conf > cur.Confidence {
					emotions[pid] = layers.EmotionObs{Label: label, Confidence: conf}
				}
			}
			a.CamEmotions = emotions
			return nil
		},
	}, nil
}

// classifyScratch is one camera's reusable batching workspace for
// classifyStage. bufs owns the crop buffers (grown on demand, reused
// across frames); the remaining slices are the per-frame batch views.
type classifyScratch struct {
	bufs   []*img.Gray
	crops  []*img.Gray
	known  []*img.Gray
	pids   []int
	ids    []string
	sims   []float64
	labels []emotion.Label
	confs  []float64
}

func (sc *classifyScratch) reset() {
	sc.crops = sc.crops[:0]
	sc.known = sc.known[:0]
	sc.pids = sc.pids[:0]
}

// addCrop crops the frame region into the next reusable buffer and
// appends it to the frame's batch.
func (sc *classifyScratch) addCrop(g *img.Gray, box img.Rect) {
	i := len(sc.crops)
	if i == len(sc.bufs) {
		sc.bufs = append(sc.bufs, nil)
	}
	sc.bufs[i] = g.CropClampedInto(box, sc.bufs[i])
	sc.crops = append(sc.crops, sc.bufs[i])
}

// pxGazeStage produces the pixel path's gaze observations from the
// calibrated estimator (the documented OpenFace substitution).
func pxGazeStage(b *stageBuild) (*Stage, error) {
	est := gaze.NewEstimator(b.cfg.Gaze)
	rig := b.rig
	return &Stage{
		Name:       StagePxGaze,
		Version:    1,
		Phase:      PhaseMerge,
		Config:     fmt.Sprintf("gaze=%+v", b.cfg.Gaze),
		Replayable: true,
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			fa.Obs = est.Observe(fa.FS, rig)
			return nil
		},
	}, nil
}

// --- geometric extraction stages ---

// geoGazeStage observes all participants through the rig on the worker
// pool (the geometric path's dominant extraction cost).
func geoGazeStage(b *stageBuild) (*Stage, error) {
	est := gaze.NewEstimator(b.cfg.Gaze)
	rig := b.rig
	return &Stage{
		Name:       StageGeoGaze,
		Version:    1,
		Phase:      PhasePrepare,
		Config:     fmt.Sprintf("gaze=%+v", b.cfg.Gaze),
		Replayable: true,
		RunCam: func(_ *runEnv, a *Artifacts) error {
			a.CamGaze = est.Observe(a.FS, rig)
			return nil
		},
	}, nil
}

// geoEmotionStage synthesises the calibrated noisy emotion
// observations (classifier-error model).
func geoEmotionStage(b *stageBuild) (*Stage, error) {
	noise := b.cfg.EmotionNoise
	if noise == 0 {
		noise = 0.05
	}
	seed := b.cfg.Gaze.Seed
	return &Stage{
		Name:       StageGeoEmotion,
		Version:    1,
		Phase:      PhasePrepare,
		Config:     fmt.Sprintf("noise=%v seed=%d", noise, seed),
		Replayable: true,
		RunCam: func(_ *runEnv, a *Artifacts) error {
			emotions := make(map[int]layers.EmotionObs, len(a.FS.Persons))
			for _, p := range a.FS.Persons {
				r := emoRand(seed, a.FS.Index, p.ID)
				label := p.Emotion
				conf := 0.75 + 0.2*r.f()
				if r.f() < noise {
					// Misclassification: a plausible confusable label.
					label = confuse(label, r)
					conf *= 0.7
				}
				emotions[p.ID] = layers.EmotionObs{Label: label, Confidence: conf}
			}
			a.CamEmotions = emotions
			return nil
		},
	}, nil
}

// collectGazeStage lifts the per-lane gaze observations into the frame
// store, in lane order.
func collectGazeStage(*stageBuild) (*Stage, error) {
	return &Stage{
		Name:       StageCollectGaze,
		Version:    1,
		Phase:      PhaseMerge,
		Replayable: true,
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			if len(fa.PerCam) == 1 {
				fa.Obs = fa.PerCam[0].CamGaze
				return nil
			}
			fa.Obs = fa.Obs[:0]
			for _, a := range fa.PerCam {
				fa.Obs = append(fa.Obs, a.CamGaze...)
			}
			return nil
		},
	}, nil
}

// fuseEmotionsStage fuses per-camera emotions in camera order —
// replace only on strictly higher confidence, exactly the monolith's
// single-map rule.
func fuseEmotionsStage(b *stageBuild) (*Stage, error) {
	return &Stage{
		Name:    StageFuseEmotions,
		Version: 1,
		Phase:   PhaseMerge,
		// Replayable only when its upstream is: the geometric emotion
		// synthesiser recomputes from frame state, but the pixel
		// classify chain needs rendered frames — a stale fuse there
		// must fall back to a full run.
		Replayable: b.cfg.Mode == GeometricVision,
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			emotions := make(map[int]layers.EmotionObs)
			for _, a := range fa.PerCam {
				for pid, e := range a.CamEmotions {
					if cur, exists := emotions[pid]; !exists || e.Confidence > cur.Confidence {
						emotions[pid] = e
					}
				}
			}
			fa.Emotions = emotions
			return nil
		},
	}, nil
}

// --- frame-serial analysis stages ---

// gazeAnalysisStage builds the frame's look-at matrix (paper §II-D.1).
func gazeAnalysisStage(b *stageBuild) (*Stage, error) {
	det := gaze.NewDetector()
	rig := b.rig
	ids := b.ids
	return &Stage{
		Name:    StageGazeAnalysis,
		Version: 1,
		Phase:   PhaseFrame,
		Config:  fmt.Sprintf("radius-scale=%v", det.RadiusScale),
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			m, err := det.LookAt(fa.Obs, rig, ids)
			if err != nil {
				return err
			}
			fa.LookAt = m
			return nil
		},
	}, nil
}

// multilayerEmitEvery is the multilayer stage's rolling cadence, and
// multilayerKeepFrames how much per-frame series tail a bounded stream
// retains (a smoothing window plus slack for late inspection).
const (
	multilayerEmitEvery  = 32
	multilayerKeepFrames = 128
)

// multilayerStage pushes each frame through the multilayer analyzer
// and finalizes the derived layers at end of run. On live/bounded
// streams it is a windowed operator: every multilayerEmitEvery frames
// it drains freshly closed eye-contact events and alerts (queued as
// records when Live — the paper's live alerting functionality) and, when
// Bounded, trims the per-frame series so memory stays flat; the exact
// aggregates (MeanOH, SatisfactionScore) are carried by counters.
func multilayerStage(b *stageBuild) (*Stage, error) {
	ctx := contextOf(b.sim, b.cfg)
	analyzer, err := layers.NewAnalyzer(ctx, layers.Options{})
	if err != nil {
		return nil, err
	}
	return &Stage{
		Name:    StageMultilayer,
		Version: 1,
		Phase:   PhaseFrame,
		Config:  "layers={SmoothWindow:0 MinECFrames:0 EmotionHold:0}", // the manifest's text for the default options
		Emit:    multilayerEmitEvery,
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			return analyzer.Push(layers.FrameInput{
				Index: fa.Index, Time: fa.FS.Time,
				LookAt: fa.LookAt, Emotions: fa.Emotions,
			})
		},
		RunEmit: func(env *runEnv, _ *FrameArtifacts) error {
			ev, al := analyzer.DrainDerived(env.opts.Bounded)
			if env.opts.Live {
				for _, e := range ev {
					env.queueDerived(ecEventRecord(e))
				}
				for _, a := range al {
					env.queueDerived(alertRecord(a))
				}
			}
			if env.opts.Bounded {
				analyzer.TrimSeries(multilayerKeepFrames)
			}
			return nil
		},
		RunFinal: func(env *runEnv) error {
			env.res.Layers = analyzer.Finalize()
			return nil
		},
	}, nil
}

// observationsStage emits the raw per-frame layer into the metadata
// batch queue: emotion observations in sorted person order (so the
// record log is byte-identical across runs and worker counts), plus
// look-at edges when the run keeps a manifest (Config.Incremental) —
// the persisted raw gaze layer incremental re-runs replay.
func observationsStage(b *stageBuild) (*Stage, error) {
	pids := make([]int, 0, len(b.ids))
	incremental := b.cfg.Incremental
	return &Stage{
		Name:    StageObservations,
		Version: 1,
		Phase:   PhaseFrame,
		Config:  fmt.Sprintf("incremental=%v", incremental),
		RunFrame: func(env *runEnv, fa *FrameArtifacts) error {
			pids = pids[:0]
			for id := range fa.Emotions {
				pids = append(pids, id)
			}
			sort.Ints(pids)
			for _, id := range pids {
				e := fa.Emotions[id]
				env.queue(metadata.Record{
					Kind: metadata.KindObservation, Frame: fa.Index, FrameEnd: fa.Index + 1,
					Time: fa.FS.Time, Person: id, Other: -1,
					Label: e.Label.String(), Value: e.Confidence,
				})
			}
			if incremental {
				m := fa.LookAt
				for i := range m.IDs {
					for j := range m.IDs {
						if m.M[i][j] == 1 {
							env.queue(metadata.Record{
								Kind: metadata.KindObservation, Frame: fa.Index, FrameEnd: fa.Index + 1,
								Time: fa.FS.Time, Person: m.IDs[i], Other: m.IDs[j],
								Label: lookatLabel, Value: 1,
							})
						}
					}
				}
			}
			return nil
		},
	}, nil
}

// --- end-of-run stages ---

// derivedRecordsStage stores events, alerts and summary counts — the
// derived metadata layer.
func derivedRecordsStage(*stageBuild) (*Stage, error) {
	return &Stage{
		Name:    StageDerived,
		Version: 1,
		Phase:   PhaseFinal,
		RunFinal: func(env *runEnv) error {
			return writeDerived(env.repo, env.res)
		},
	}, nil
}

// summarizeStage produces the event digest.
func summarizeStage(*stageBuild) (*Stage, error) {
	return &Stage{
		Name:    StageSummarize,
		Version: 1,
		Phase:   PhaseFinal,
		Config:  "summarize={TopK:0 WindowLen:0 MinGap:0}", // the manifest's text for the defaults
		RunFinal: func(env *runEnv) error {
			s, err := summarize.Summarize(env.res.Layers)
			if err != nil {
				return fmt.Errorf("summarizing: %w", err)
			}
			env.res.Summary = s
			return nil
		},
	}, nil
}

// --- engine adapter ---

// graphVision schedules a resolved stage graph onto the concurrent
// engine: prepare stages on the worker pool, ordered stages on the
// per-camera consumers, merge stages on the merger. Frame and final
// stages are driven by Pipeline.run, not the engine.
type graphVision struct {
	g     *stageGraph
	env   *runEnv
	nCams int
	seq   *integralScratch // sequential path's worker scratch
}

func newGraphVision(g *stageGraph, env *runEnv, nCams int) *graphVision {
	v := &graphVision{g: g, env: env, nCams: nCams}
	v.seq = new(integralScratch)
	return v
}

func (v *graphVision) streams() int { return v.nCams }

// newScratch allocates one worker's integral tables.
func (v *graphVision) newScratch() any { return new(integralScratch) }

// prepare runs the stateless stages for one (camera, frame) with
// exclusive use of the calling worker's scratch, timing each stage
// under its own name (chained timestamps: one clock read per stage).
func (v *graphVision) prepare(stream int, fs scene.FrameState, scratch any) any {
	a := &Artifacts{Cam: stream, FS: fs, scratch: scratch.(*integralScratch)}
	t := time.Now()
	for _, st := range v.g.byPhase[PhasePrepare] {
		if err := st.RunCam(v.env, a); err != nil {
			a.err = fmt.Errorf("stage %s: %w", st.Name, err)
			break
		}
		now := time.Now()
		v.env.timer.add(st.Name, now.Sub(t))
		t = now
	}
	return a
}

// step runs the ordered stages for one camera in strict frame order,
// then returns the frame's gray plane to its pool.
func (v *graphVision) step(_ int, _ scene.FrameState, prep any) (any, error) {
	a := prep.(*Artifacts)
	if a.err == nil {
		t := time.Now()
		for _, st := range v.g.byPhase[PhaseOrdered] {
			if err := st.RunCam(v.env, a); err != nil {
				a.err = fmt.Errorf("stage %s: %w", st.Name, err)
				break
			}
			now := time.Now()
			v.env.timer.add(st.Name, now.Sub(t))
			t = now
		}
	}
	if a.Gray != nil && a.release != nil {
		a.release(a.Gray)
		a.Gray = nil
	}
	return a, a.err
}

// finish assembles the frame store and runs the merge stages in order,
// timing each under its own name (px-gaze's estimator pass is real
// per-frame work, not just map fusion).
func (v *graphVision) finish(fs scene.FrameState, perStream []any) (any, error) {
	fa := &FrameArtifacts{Index: fs.Index, FS: fs, PerCam: make([]*Artifacts, len(perStream))}
	for i, raw := range perStream {
		fa.PerCam[i] = raw.(*Artifacts)
	}
	t := time.Now()
	for _, st := range v.g.byPhase[PhaseMerge] {
		if err := st.RunFrame(v.env, fa); err != nil {
			return nil, fmt.Errorf("stage %s: %w", st.Name, err)
		}
		now := time.Now()
		v.env.timer.add(st.Name, now.Sub(t))
		t = now
	}
	return fa, nil
}

// extract is the sequential path: all engine phases inline on the
// calling goroutine, sharing the same stage code as the concurrent
// engine so both paths produce identical results.
func (v *graphVision) extract(fs scene.FrameState) (any, error) {
	perCam := make([]any, v.nCams)
	for ci := 0; ci < v.nCams; ci++ {
		res, err := v.step(ci, fs, v.prepare(ci, fs, v.seq))
		if err != nil {
			return nil, err
		}
		perCam[ci] = res
	}
	return v.finish(fs, perCam)
}

// itoa keeps strconv out of stage call sites.
func itoa(v int) string { return strconv.Itoa(v) }
