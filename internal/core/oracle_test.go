package core

// This file is the frozen monolithic pipeline — the exact detect →
// recognize → emotion → gaze chain and derived pass that core.Run
// hardwired before the stage-graph refactor (DESIGN.md §7). It is
// retained verbatim as the equivalence oracle, the same pattern as
// face.detectOracle and metadata.NaiveQueryExpr: the production
// stage-graph pipeline must produce byte-identical metadata records,
// layers and summaries to runOracle for both vision modes. It is
// deliberately self-contained (its own vision structs, its own write
// helpers, its own copies of the small algorithmic utilities) so that
// no production refactor can silently change both sides at once. Do
// not optimise or extend it; fix it only if it is provably wrong, and
// say so in DESIGN.md §7.

import (
	"fmt"
	"sort"

	"repro/internal/camera"
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

// oracleVision is the monolith's per-frame extraction contract.
type oracleVision interface {
	extract(fs scene.FrameState) ([]gaze.Observation, map[int]layers.EmotionObs, error)
}

// runOracle executes the frozen monolithic pipeline sequentially
// (the pre-refactor Workers=1 path) and returns its result. Tests
// compare production runs of any worker count against it.
func (p *Pipeline) runOracle() (*Result, error) {
	cfg := p.cfg
	ctx := p.Context()

	numFrames := p.sim.NumFrames()
	if cfg.MaxFrames > 0 && cfg.MaxFrames < numFrames {
		numFrames = cfg.MaxFrames
	}

	var repo *metadata.Repository
	var err error
	if cfg.RepoDir != "" {
		repo, err = metadata.Open(cfg.RepoDir, cfg.RepoOptions...)
		if err != nil {
			return nil, fmt.Errorf("core: opening repository: %w", err)
		}
	} else {
		repo = metadata.NewMem()
	}
	finished := false
	defer func() {
		if !finished {
			repo.Close()
		}
	}()

	res := &Result{Context: ctx, Repo: repo}
	timer := newStageTimer()

	if err := oracleWriteContext(repo, ctx); err != nil {
		return nil, err
	}

	analyzer, err := layers.NewAnalyzer(ctx, layers.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	var vision oracleVision
	switch cfg.Mode {
	case GeometricVision:
		vision = newOracleGeometricVision(cfg, p.rig)
	case PixelVision:
		vision, err = newOraclePixelVision(cfg, p.sim, p.rig)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown vision mode %d: %w", cfg.Mode, ErrBadConfig)
	}

	ids := make([]int, 0, len(ctx.Participants))
	for _, pp := range ctx.Participants {
		ids = append(ids, pp.ID)
	}
	det := gaze.NewDetector()

	const metadataBatch = 256
	pending := make([]metadata.Record, 0, metadataBatch)
	pids := make([]int, 0, len(ids))

	for i := 0; i < numFrames; i++ {
		fs := p.sim.FrameState(i)
		timer.start("feature-extraction")
		obs, emotions, err := vision.extract(fs)
		timer.stop("feature-extraction")
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", i, err)
		}

		timer.start("gaze-analysis")
		lookAt, err := det.LookAt(obs, p.rig, ids)
		timer.stop("gaze-analysis")
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", i, err)
		}

		timer.start("multilayer")
		err = analyzer.Push(layers.FrameInput{
			Index: i, Time: fs.Time, LookAt: lookAt, Emotions: emotions,
		})
		timer.stop("multilayer")
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", i, err)
		}

		timer.start("metadata")
		pids = pids[:0]
		for id := range emotions {
			pids = append(pids, id)
		}
		sort.Ints(pids)
		for _, id := range pids {
			e := emotions[id]
			pending = append(pending, metadata.Record{
				Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
				Time: fs.Time, Person: id, Other: -1,
				Label: e.Label.String(), Value: e.Confidence,
			})
		}
		var aerr error
		if len(pending) >= metadataBatch {
			aerr = repo.AppendBatch(pending)
			pending = pending[:0]
		}
		timer.stop("metadata")
		if aerr != nil {
			return nil, fmt.Errorf("core: flushing observations: %w", aerr)
		}
	}

	timer.start("metadata")
	if len(pending) > 0 {
		if err := repo.AppendBatch(pending); err != nil {
			return nil, fmt.Errorf("core: flushing observations: %w", err)
		}
	}
	timer.stop("metadata")

	timer.start("multilayer")
	res.Layers = analyzer.Finalize()
	timer.stop("multilayer")
	res.FramesAnalyzed = numFrames

	timer.start("metadata")
	if err := oracleWriteDerived(repo, res); err != nil {
		return nil, err
	}
	if err := repo.Flush(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	timer.stop("metadata")

	timer.start("summarize")
	res.Summary, err = summarize.Summarize(res.Layers)
	timer.stop("summarize")
	if err != nil {
		return nil, fmt.Errorf("core: summarizing: %w", err)
	}

	res.Timings = timer.report()
	finished = true
	return res, nil
}

// oracleWriteContext stores the time-invariant layer.
func oracleWriteContext(repo *metadata.Repository, ctx layers.Context) error {
	recs := []metadata.Record{
		{Kind: metadata.KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1,
			Label: "occasion", Tags: map[string]string{"value": ctx.Occasion}},
		{Kind: metadata.KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1,
			Label: "location", Tags: map[string]string{"value": ctx.Location}},
	}
	for _, pp := range ctx.Participants {
		recs = append(recs, metadata.Record{
			Kind: metadata.KindContext, Frame: -1, FrameEnd: -1,
			Person: pp.ID, Other: -1, Label: "participant",
			Tags: map[string]string{"name": pp.Name, "color": pp.Color},
		})
	}
	if err := repo.AppendBatch(recs); err != nil {
		return fmt.Errorf("core: writing context: %w", err)
	}
	return nil
}

// oracleWriteDerived stores events, alerts, summary counts, shots and
// scenes.
func oracleWriteDerived(repo *metadata.Repository, res *Result) error {
	var recs []metadata.Record
	for _, e := range res.Layers.Events {
		recs = append(recs, metadata.Record{
			Kind: metadata.KindEvent, Frame: e.Start, FrameEnd: e.End,
			Time: e.StartTime, Person: e.A, Other: e.B,
			Label: "eye-contact", Value: float64(e.Frames()),
		})
	}
	for _, a := range res.Layers.Alerts {
		recs = append(recs, metadata.Record{
			Kind: metadata.KindEvent, Frame: a.Frame, FrameEnd: a.Frame + 1,
			Time: a.Time, Person: a.Person, Other: a.Other,
			Label: "alert-" + a.Kind.String(),
			Tags:  map[string]string{"detail": a.Detail},
		})
	}
	sum := res.Layers.Summary
	for i, from := range sum.IDs {
		for j, to := range sum.IDs {
			if sum.Counts[i][j] == 0 {
				continue
			}
			recs = append(recs, metadata.Record{
				Kind: metadata.KindEvent, Frame: 0, FrameEnd: res.FramesAnalyzed,
				Person: from, Other: to, Label: "lookat-count",
				Value: float64(sum.Counts[i][j]),
			})
		}
	}
	if err := repo.AppendBatch(recs); err != nil {
		return fmt.Errorf("core: writing derived records: %w", err)
	}
	return nil
}

// --- frozen geometric vision ---

type oracleGeometricVision struct {
	est   *gaze.Estimator
	rig   *camera.Rig
	noise float64
	seed  int64
}

func newOracleGeometricVision(cfg Config, rig *camera.Rig) *oracleGeometricVision {
	noise := cfg.EmotionNoise
	if noise == 0 {
		noise = 0.05
	}
	return &oracleGeometricVision{
		est:   gaze.NewEstimator(cfg.Gaze),
		rig:   rig,
		noise: noise,
		seed:  cfg.Gaze.Seed,
	}
}

func (g *oracleGeometricVision) extract(fs scene.FrameState) ([]gaze.Observation, map[int]layers.EmotionObs, error) {
	obs := g.est.Observe(fs, g.rig)
	emotions := make(map[int]layers.EmotionObs, len(fs.Persons))
	for _, p := range fs.Persons {
		r := oracleEmoRand(g.seed, fs.Index, p.ID)
		label := p.Emotion
		conf := 0.75 + 0.2*r.f()
		if r.f() < g.noise {
			label = oracleConfuse(label, r)
			conf *= 0.7
		}
		emotions[p.ID] = layers.EmotionObs{Label: label, Confidence: conf}
	}
	return obs, emotions, nil
}

// oracleConfuse returns a plausible misclassification of l.
func oracleConfuse(l emotion.Label, r *oracleRand) emotion.Label {
	confusables := map[emotion.Label][]emotion.Label{
		emotion.Neutral:  {emotion.Sad, emotion.Happy},
		emotion.Happy:    {emotion.Neutral, emotion.Surprise},
		emotion.Sad:      {emotion.Neutral, emotion.Angry},
		emotion.Angry:    {emotion.Disgust, emotion.Sad},
		emotion.Disgust:  {emotion.Angry, emotion.Sad},
		emotion.Fear:     {emotion.Surprise, emotion.Sad},
		emotion.Surprise: {emotion.Fear, emotion.Happy},
	}
	opts := confusables[l]
	if len(opts) == 0 {
		return l
	}
	return opts[int(r.u()%uint64(len(opts)))]
}

// oracleRand is the deterministic emotion-noise stream.
type oracleRand struct{ s uint64 }

func oracleEmoRand(seed int64, frame, person int) *oracleRand {
	return &oracleRand{s: uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(frame)*0xBF58476D1CE4E5B9 ^ uint64(person)*0x94D049BB133111EB}
}

func (t *oracleRand) u() uint64 {
	t.s += 0x9E3779B97F4A7C15
	z := t.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *oracleRand) f() float64 { return float64(t.u()>>11) / (1 << 53) }

// --- frozen pixel vision ---

type oraclePixelCam struct {
	renderer *video.Renderer
	tracker  *face.Tracker
	crop     *img.Gray
}

type oraclePixelVision struct {
	cfg        Config
	rig        *camera.Rig
	cams       []oraclePixelCam
	detector   *face.Detector
	recognizer *face.Recognizer
	classifier *emotion.Classifier
	est        *gaze.Estimator
	nameToID   map[string]int
	scratch    oracleScratch
}

type oracleScratch struct {
	in *img.Integral
	sq *img.IntegralSq
}

func newOraclePixelVision(cfg Config, sim *scene.Simulator, rig *camera.Rig) (*oraclePixelVision, error) {
	det, err := face.NewDetector(face.DetectorOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	clf := cfg.Classifier
	if clf == nil {
		clf, err = trainDefaultClassifier()
		if err != nil {
			return nil, err
		}
	}
	nCams := cfg.PixelCameras
	if nCams <= 0 {
		nCams = 1
	}
	if nCams > len(rig.Cameras) {
		nCams = len(rig.Cameras)
	}
	pv := &oraclePixelVision{
		cfg:        cfg,
		rig:        rig,
		detector:   det,
		recognizer: face.NewRecognizer(),
		classifier: clf,
		est:        gaze.NewEstimator(cfg.Gaze),
		nameToID:   make(map[string]int),
	}
	for c := 0; c < nCams; c++ {
		pv.cams = append(pv.cams, oraclePixelCam{
			renderer: video.NewRenderer(sim, rig.Cameras[c], video.RenderOptions{}),
			tracker:  face.NewTracker(face.TrackerOptions{}),
		})
	}
	for _, p := range sim.Persons() {
		variant := uint64(p.ID)*7919 + 1
		for _, l := range []emotion.Label{emotion.Neutral, emotion.Happy, emotion.Sad} {
			crop := emotion.GenerateFace(l, variant, p.FaceTone)
			if err := pv.recognizer.Enroll(p.Name, crop); err != nil {
				return nil, fmt.Errorf("core: enrolling %s: %w", p.Name, err)
			}
		}
		pv.nameToID[p.Name] = p.ID
	}
	return pv, nil
}

func (pv *oraclePixelVision) extract(fs scene.FrameState) ([]gaze.Observation, map[int]layers.EmotionObs, error) {
	emotions := make(map[int]layers.EmotionObs)
	for ci := range pv.cams {
		pc := &pv.cams[ci]
		frame := pc.renderer.RenderStateInto(fs, pc.renderer.AcquireFrame())
		if (fs.Index+ci)%pv.cfg.DetectEvery == 0 {
			pv.scratch.in, pv.scratch.sq = img.BuildIntegrals(frame, pv.scratch.in, pv.scratch.sq)
			pc.tracker.Step(pv.detector.DetectIntegrals(frame, pv.scratch.in, pv.scratch.sq))
		} else {
			pc.tracker.Coast()
		}
		for _, tr := range pc.tracker.Tracks() {
			if tr.State != face.Confirmed && fs.Index > 5 {
				continue
			}
			pc.crop = frame.CropClampedInto(oracleClampBox(tr.Box, frame), pc.crop)
			id, _, err := pv.recognizer.Identify(pc.crop)
			if err != nil {
				continue
			}
			pid, ok := pv.nameToID[id]
			if !ok {
				continue
			}
			label, conf, err := pv.classifier.Classify(pc.crop)
			if err != nil {
				continue
			}
			if cur, exists := emotions[pid]; !exists || conf > cur.Confidence {
				emotions[pid] = layers.EmotionObs{Label: label, Confidence: conf}
			}
		}
		pc.renderer.ReleaseFrame(frame)
	}
	return pv.est.Observe(fs, pv.rig), emotions, nil
}

// oracleClampBox keeps a tracker box inside the frame.
func oracleClampBox(b img.Rect, g *img.Gray) img.Rect {
	if b.X < 0 {
		b.W += b.X
		b.X = 0
	}
	if b.Y < 0 {
		b.H += b.Y
		b.Y = 0
	}
	if b.X+b.W > g.W {
		b.W = g.W - b.X
	}
	if b.Y+b.H > g.H {
		b.H = g.H - b.Y
	}
	if b.W < 1 {
		b.W = 1
	}
	if b.H < 1 {
		b.H = 1
	}
	return b
}
