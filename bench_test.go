// Package repro benchmarks every figure and table of the DiEvent paper
// plus the ablations DESIGN.md calls out. Each Benchmark maps to a row
// of the experiment index (DESIGN.md §3); cmd/repro prints the
// corresponding measured values.
package repro

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/camera"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/emotion"
	"repro/internal/face"
	"repro/internal/gaze"
	"repro/internal/hmm"
	"repro/internal/img"
	"repro/internal/layers"
	"repro/internal/lbp"
	"repro/internal/metadata"
	"repro/internal/nn"
	"repro/internal/parsing"
	"repro/internal/scene"
	"repro/internal/video"
)

// --- shared fixtures (built once; benchmarks must not pay setup) ---

func mustSim(b *testing.B) *scene.Simulator {
	b.Helper()
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func mustRig(b *testing.B) *camera.Rig {
	b.Helper()
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		b.Fatal(err)
	}
	return rig
}

// BenchmarkFig2Projection measures the acquisition-platform geometry
// path: projecting world points through a calibrated camera (Fig. 2
// substrate).
func BenchmarkFig2Projection(b *testing.B) {
	rig := mustRig(b)
	cam := rig.Cameras[0]
	sim := mustSim(b)
	fs := sim.FrameState(250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range fs.Persons {
			if _, err := cam.Project(p.Head.Position); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3VideoParsing measures shot-boundary detection and
// hierarchy construction over a pre-rendered multi-shot composition
// (Fig. 3).
func BenchmarkFig3VideoParsing(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	opt := video.RenderOptions{NoiseSigma: 1.5}
	mk := func(cam, from, to int) video.Source {
		s, err := video.NewSourceRange(video.NewRenderer(sim, rig.Cameras[cam], opt), from, to)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	comp, err := video.Compose(
		[]video.Source{mk(0, 0, 150), mk(2, 0, 150)},
		[]video.Shot{
			{Source: 0, Len: 60},
			{Source: 1, Len: 50, TransitionIn: video.Cut},
			{Source: 0, Len: 60, TransitionIn: video.Dissolve},
		})
	if err != nil {
		b.Fatal(err)
	}
	frames, err := video.Collect(comp.Source())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parsing.AnalyzeFrames(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4LookAtMatrix measures one frame's look-at matrix: the
// n(n−1) transform-chain + ray-sphere procedure of §II-D.1 (Fig. 4).
func BenchmarkFig4LookAtMatrix(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 1})
	det := gaze.NewDetector()
	ids := []int{0, 1, 2, 3}
	obs := est.Observe(sim.FrameState(250), rig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.LookAt(obs, rig, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5OverallEmotion measures the Fig. 5 fusion: 100 frames of
// per-person emotion observations pushed through the multilayer
// analyzer and fused into overall-happiness estimates.
func BenchmarkFig5OverallEmotion(b *testing.B) {
	sim := mustSim(b)
	ids := []int{0, 1, 2, 3}
	p, err := core.New(core.Config{Scenario: scene.PrototypeScenario()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := p.Context()
	// Pre-compute 100 frames of inputs (empty gaze; emotion fusion is
	// the measured path).
	var inputs []layers.FrameInput
	for f := 0; f < 100; f++ {
		fs := sim.FrameState(f)
		emo := make(map[int]layers.EmotionObs, 4)
		for _, ps := range fs.Persons {
			emo[ps.ID] = layers.EmotionObs{Label: ps.Emotion, Confidence: 0.9}
		}
		inputs = append(inputs, layers.FrameInput{
			Index: f, Time: fs.Time, LookAt: gaze.NewMatrix(ids), Emotions: emo,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := layers.NewAnalyzer(ctx, layers.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range inputs {
			if err := an.Push(in); err != nil {
				b.Fatal(err)
			}
		}
		res := an.Finalize()
		if len(res.Overall) != 100 {
			b.Fatal("fusion lost frames")
		}
	}
}

// BenchmarkFig7LookAtMap measures the full Fig. 7 path for one frame:
// observe all four participants through the rig, then build the matrix.
func BenchmarkFig7LookAtMap(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 1})
	det := gaze.NewDetector()
	ids := []int{0, 1, 2, 3}
	fs := sim.FrameState(250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := est.Observe(fs, rig)
		if _, err := det.LookAt(obs, rig, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Summary measures the complete 610-frame summary-matrix
// construction (observe + matrix + accumulate), i.e. regenerating
// Fig. 9 from scratch.
func BenchmarkFig9Summary(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 1})
	det := gaze.NewDetector()
	ids := []int{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := gaze.NewSummary(ids)
		for f := 0; f < 610; f++ {
			obs := est.Observe(sim.FrameState(f), rig)
			m, err := det.LookAt(obs, rig, ids)
			if err != nil {
				b.Fatal(err)
			}
			if err := sum.Add(m); err != nil {
				b.Fatal(err)
			}
		}
		if sum.Dominant() != 0 {
			b.Fatal("dominance changed — benchmark invalid")
		}
	}
}

// --- T-A: emotion recognition ---

// BenchmarkEmotionClassify measures one LBP+NN classification of a
// 64×64 face crop (experiment T-A).
func BenchmarkEmotionClassify(b *testing.B) {
	clf, err := emotion.NewClassifier(48, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds := emotion.GenerateDataset(10, 1)
	if _, err := clf.Train(ds, emotion.TrainOptions{Epochs: 5, Seed: 2, LearningRate: 0.01}); err != nil {
		b.Fatal(err)
	}
	face := emotion.GenerateFace(emotion.Happy, 3, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clf.Classify(face); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLBPDescriptor measures the LBP grid-descriptor extraction
// as the classify stage runs it: GridDescriptorInto on descriptor and
// code-image scratch reused across faces.
func BenchmarkLBPDescriptor(b *testing.B) {
	f := emotion.GenerateFace(emotion.Surprise, 5, 180)
	var feat []float64
	codes := &img.Gray{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		feat, err = lbp.GridDescriptorInto(f, emotion.DefaultGrid, emotion.DefaultGrid, feat, codes)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNForward measures one forward pass of the emotion network
// shape (944-48-7) on the single-sample entry point (Classify, which
// runs the batched forward pass as a batch of one on pooled scratch
// and allocates nothing warm).
func BenchmarkNNForward(b *testing.B) {
	net, err := nn.New(nn.Config{Sizes: []int{944, 48, 7}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 944)
	for i := range x {
		x[i] = float64(i%59) / 59
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNForwardBatch measures the same forward pass on
// ClassifyBatch at the batch the classify stage sends (one or two faces
// per camera) and at an 8-face frame, reporting samples/s; per-sample
// cost falls with the batch because one walk over each block of weight
// rows serves every sample.
func BenchmarkNNForwardBatch(b *testing.B) {
	net, err := nn.New(nn.Config{Sizes: []int{944, 48, 7}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			xs := make([][]float64, batch)
			for s := range xs {
				x := make([]float64, 944)
				for i := range x {
					x[i] = float64((i+s)%59) / 59
				}
				xs[s] = x
			}
			var cls []int
			var conf []float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cls, conf, err = net.ClassifyBatch(xs, cls, conf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkFaceInferenceBatch measures the per-face inference path the
// classify stage runs each frame — batched identity (face.IdentifyBatch)
// plus batched emotion classification — over an 8-face frame, reporting
// faces/s. This is the headline number behind BENCH faces/s.
func BenchmarkFaceInferenceBatch(b *testing.B) {
	clf := benchClassifier(b)
	rec := face.NewRecognizer()
	var faces []*img.Gray
	for p := 0; p < 4; p++ {
		id := fmt.Sprintf("P%d", p)
		tone := uint8(100 + 30*p)
		for v := uint64(0); v < 2; v++ {
			crop := emotion.GenerateFace(emotion.Neutral, uint64(p)*8+v, tone)
			if err := rec.Enroll(id, crop); err != nil {
				b.Fatal(err)
			}
			faces = append(faces, crop)
		}
	}
	var ids []string
	var sims []float64
	var labels []emotion.Label
	var confs []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, sims = rec.IdentifyBatch(faces, ids, sims)
		var err error
		if labels, confs, err = clf.ClassifyBatch(faces, labels, confs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(faces))*float64(b.N)/b.Elapsed().Seconds(), "faces/s")
}

// --- T-B: eye-contact ablation ---

// BenchmarkECDetection measures the ray-sphere eye-contact test across
// a noise sweep configuration (experiment T-B's inner loop).
func BenchmarkECDetection(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	ids := []int{0, 1, 2, 3}
	for _, noise := range []float64{2, 6} {
		b.Run(fmt.Sprintf("noise%.0fdeg", noise), func(b *testing.B) {
			est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 1, GazeNoiseDeg: noise})
			det := gaze.NewDetector()
			obs := est.Observe(sim.FrameState(150), rig)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.LookAt(obs, rig, ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T-C: pipeline throughput ---

// BenchmarkPipelineEndToEnd measures the full geometric pipeline over
// the 610-frame prototype (experiment T-C).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.Config{
			Scenario: scene.PrototypeScenario(),
			Mode:     core.GeometricVision,
			Gaze:     gaze.EstimatorOptions{Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		res.Repo.Close()
	}
}

// BenchmarkRenderFrame measures synthetic 640×480 frame rendering on
// the engine's steady-state path: drawing into a reused pooled buffer,
// so allocations/op stay near zero.
func BenchmarkRenderFrame(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	r := video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{NoiseSigma: 2})
	frame := r.AcquireFrame()
	defer r.ReleaseFrame(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = r.RenderStateInto(sim.FrameState(i%610), frame)
	}
}

// benchClassifier trains one small shared emotion classifier for the
// parallel-pipeline benchmark (setup must not be paid inside b.N).
var (
	benchClfOnce sync.Once
	benchClf     *emotion.Classifier
	benchClfErr  error
)

func benchClassifier(b *testing.B) *emotion.Classifier {
	b.Helper()
	benchClfOnce.Do(func() {
		clf, err := emotion.NewClassifier(48, 1)
		if err != nil {
			benchClfErr = err
			return
		}
		ds := emotion.GenerateDataset(10, 1)
		if _, err := clf.Train(ds, emotion.TrainOptions{Epochs: 5, Seed: 2, LearningRate: 0.01}); err != nil {
			benchClfErr = err
			return
		}
		benchClf = clf
	})
	if benchClfErr != nil {
		b.Fatal(benchClfErr)
	}
	return benchClf
}

// BenchmarkPipelineParallel measures the concurrent PixelVision
// extraction engine over a bounded prototype prefix (two cameras,
// staggered detection). Workers defaults to GOMAXPROCS, so a
// `-cpu 1,2,4` sweep exercises worker pools of the matching sizes —
// the experiment behind the engine's ≥2× scaling claim.
func BenchmarkPipelineParallel(b *testing.B) {
	p, err := core.New(core.Config{
		Scenario:     scene.PrototypeScenario(),
		Mode:         core.PixelVision,
		Gaze:         gaze.EstimatorOptions{Seed: 1},
		Classifier:   benchClassifier(b),
		MaxFrames:    30,
		DetectEvery:  3,
		PixelCameras: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Repo.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineIncremental measures an incremental re-run with
// only the emotion stage stale (DESIGN.md §7): the gaze chain — the
// geometric pipeline's dominant cost — is replayed from the previous
// run's persisted look-at records, so the re-run must complete in
// under 50% of a full 610-frame run (compare BenchmarkPipelineFull610
// below, the same manifest-keeping configuration run end to end).
func BenchmarkPipelineIncremental(b *testing.B) {
	cfg := core.Config{
		Scenario:    scene.PrototypeScenario(),
		Mode:        core.GeometricVision,
		Gaze:        gaze.EstimatorOptions{Seed: 1},
		Incremental: true,
	}
	p0, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := p0.Run()
	if err != nil {
		b.Fatal(err)
	}
	defer prev.Repo.Close()

	stale := cfg
	stale.EmotionNoise = 0.07 // "retrained" emotion model
	p, err := core.New(stale)
	if err != nil {
		b.Fatal(err)
	}
	// Validity guard: the gaze chain must actually be replayed.
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		b.Fatal(err)
	}
	reusedGaze := false
	for _, n := range res.ReusedStages {
		if n == core.StageGeoGaze {
			reusedGaze = true
		}
	}
	res.Repo.Close()
	if !reusedGaze {
		b.Fatalf("gaze chain not reused (stale=%v) — benchmark invalid", res.StaleStages)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.RunIncremental(prev.Repo)
		if err != nil {
			b.Fatal(err)
		}
		res.Repo.Close()
	}
}

// BenchmarkPipelineFull610 is BenchmarkPipelineIncremental's
// denominator: the same manifest-keeping 610-frame geometric run,
// executed in full.
func BenchmarkPipelineFull610(b *testing.B) {
	p, err := core.New(core.Config{
		Scenario:    scene.PrototypeScenario(),
		Mode:        core.GeometricVision,
		Gaze:        gaze.EstimatorOptions{Seed: 1},
		Incremental: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		res.Repo.Close()
	}
}

// BenchmarkFaceDetect measures one full-frame multi-scale face
// detection pass (PixelVision's dominant cost) on the fused
// template-matching engine (DESIGN.md §6), reporting coarse-grid
// windows scanned per second alongside ns/op.
func BenchmarkFaceDetect(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	r := video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{})
	frame := r.Render(250).Pixels
	det, err := face.NewDetector(face.DetectorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Detect(frame)
	}
	b.StopTimer()
	windows := float64(det.GridWindows(frame.W, frame.H))
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(windows/perOp, "windows/s")
}

// BenchmarkFaceDetectShared measures the engine's steady-state path:
// DetectIntegrals over caller-built summed-area tables, the form the
// extraction engine drives once per (camera, frame) with pooled
// buffers.
func BenchmarkFaceDetectShared(b *testing.B) {
	sim := mustSim(b)
	rig := mustRig(b)
	r := video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{})
	frame := r.Render(250).Pixels
	det, err := face.NewDetector(face.DetectorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var in *img.Integral
	var sq *img.IntegralSq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, sq = img.BuildIntegrals(frame, in, sq)
		_ = det.DetectIntegrals(frame, in, sq)
	}
}

// --- T-D: metadata repository ---

// BenchmarkMetadataIngest measures durable record appends.
func BenchmarkMetadataIngest(b *testing.B) {
	dir, err := os.MkdirTemp("", "dievent-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	repo, err := metadata.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := repo.Append(metadata.Record{
			Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
			Time:   time.Duration(i) * 40 * time.Millisecond,
			Person: i % 4, Other: -1, Label: "happy", Value: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetadataQuery measures an indexed semantic query over a
// 50k-record repository (experiment T-D).
func BenchmarkMetadataQuery(b *testing.B) {
	repo := metadata.NewMem()
	labels := []string{"happy", "sad", "neutral", "eye-contact"}
	for i := 0; i < 50000; i++ {
		if _, err := repo.Append(metadata.Record{
			Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
			Person: i % 4, Other: -1, Label: labels[i%4], Value: float64(i%100) / 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := repo.Query("label = 'eye-contact' AND person = 4 AND frame >= 25000")
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("query became empty — benchmark invalid")
		}
	}
}

// benchRepo1M builds the shared 1M-record repository for the planned
// query benchmarks once: three bulk emotion labels, a sparse
// "eye-contact" label (1/64), a rare "alert-negative-spike" label
// (1/8192), 16 participants, frames advancing every 4 records.
var (
	repo1MOnce sync.Once
	repo1M     *metadata.Repository
	repo1MErr  error
)

func benchRepo1M(b *testing.B) *metadata.Repository {
	b.Helper()
	repo1MOnce.Do(func() {
		r := metadata.NewMem()
		labels := []string{"happy", "neutral", "sad"}
		batch := make([]metadata.Record, 0, 8192)
		for i := 0; i < 1_000_000; i++ {
			label := labels[i%3]
			switch {
			case i%8192 == 4095:
				label = "alert-negative-spike"
			case i%64 == 63:
				label = "eye-contact"
			}
			batch = append(batch, metadata.Record{
				Kind: metadata.KindObservation, Frame: i / 4, FrameEnd: i/4 + 1,
				Time:   time.Duration(i/4) * 40 * time.Millisecond,
				Person: i % 16, Other: -1, Label: label, Value: float64(i%1000) / 1000,
			})
			if len(batch) == cap(batch) {
				if repo1MErr = r.AppendBatch(batch); repo1MErr != nil {
					return
				}
				batch = batch[:0]
			}
		}
		if repo1MErr = r.AppendBatch(batch); repo1MErr != nil {
			return
		}
		repo1M = r
	})
	if repo1MErr != nil {
		b.Fatal(repo1MErr)
	}
	return repo1M
}

// benchQueries1M are the selective shapes of the ≥5× planner claim:
// a rare label, a label∩person intersection, and a frame window.
var benchQueries1M = []struct{ name, q string }{
	{"label", "label = 'alert-negative-spike'"},
	{"person", "label = 'eye-contact' AND person = 16"},
	{"frameRange", "frame >= 200000 AND frame < 200100"},
}

// BenchmarkQueryPlanned1M measures the planned, parallel engine on
// selective queries over a 1M-record repository.
func BenchmarkQueryPlanned1M(b *testing.B) {
	repo := benchRepo1M(b)
	for _, bq := range benchQueries1M {
		b.Run(bq.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recs, err := repo.Query(bq.q)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					b.Fatal("query became empty — benchmark invalid")
				}
			}
		})
	}
}

// BenchmarkQueryNaive1M measures the reference full-scan interpreter on
// the same queries — the baseline of the planner's speedup claim.
func BenchmarkQueryNaive1M(b *testing.B) {
	repo := benchRepo1M(b)
	for _, bq := range benchQueries1M {
		expr, err := metadata.Parse(bq.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bq.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recs, err := repo.NaiveQueryExpr(expr)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					b.Fatal("query became empty — benchmark invalid")
				}
			}
		})
	}
}

// BenchmarkMetadataIngestSegmented measures batched durable ingest
// through the segmented store with a small roll threshold, so the
// steady state includes segment seals and manifest swaps — the
// worst-case ingest overhead of the segmented engine vs the old
// single-file log.
func BenchmarkMetadataIngestSegmented(b *testing.B) {
	dir := b.TempDir()
	repo, err := metadata.Open(dir, metadata.WithSegmentSize(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	const batch = 256
	recs := make([]metadata.Record, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range recs {
			f := i + j
			recs[j] = metadata.Record{
				Kind: metadata.KindObservation, Frame: f, FrameEnd: f + 1,
				Time:   time.Duration(f) * 40 * time.Millisecond,
				Person: f % 4, Other: -1, Label: "happy", Value: 0.9,
			}
		}
		if err := repo.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetadataAppendDuringCompact measures append latency while a
// compaction loop continuously merges sealed segments — the tentpole
// claim that compaction no longer blocks appends for the duration of
// the rewrite (it holds the write lock only to seal and to swap the
// manifest).
func BenchmarkMetadataAppendDuringCompact(b *testing.B) {
	dir := b.TempDir()
	repo, err := metadata.Open(dir, metadata.WithSegmentSize(256<<10))
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	// Preload sealed segments worth of data so each Compact has a real
	// rewrite to do.
	seed := make([]metadata.Record, 50000)
	for i := range seed {
		seed[i] = metadata.Record{
			Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
			Person: i % 4, Other: -1, Label: "happy", Value: 0.9,
		}
	}
	if err := repo.AppendBatch(seed); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	compactErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				compactErr <- nil
				return
			default:
			}
			if err := repo.Compact(); err != nil {
				compactErr <- err
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 50000 + i
		_, err := repo.Append(metadata.Record{
			Kind: metadata.KindObservation, Frame: f, FrameEnd: f + 1,
			Person: f % 4, Other: -1, Label: "sad", Value: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	if err := <-compactErr; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkColdOpenQuery measures the cold-open query path — open a
// persisted repository, run one selective query, close — with and
// without statistics pushdown (DESIGN.md §9). The fixture holds ≥1M
// records across ≥64 sealed segments; the query's frame window lives in
// a handful of them, so the pushdown open skips nearly every segment
// without decoding it. The headline claim: pushdown ≥3× faster than
// full replay.
func BenchmarkColdOpenQuery(b *testing.B) {
	dir := b.TempDir()
	const query = "frame >= 200000 AND frame < 200100"
	buildColdOpenFixture(b, dir)
	expr, err := metadata.Parse(query)
	if err != nil {
		b.Fatal(err)
	}

	// Validity guard, once: pushdown results must be byte-identical to
	// full replay, and segments must actually be skipped.
	full, err := metadata.Open(dir, metadata.WithReadOnly())
	if err != nil {
		b.Fatal(err)
	}
	want, err := full.QueryExpr(expr)
	if err != nil {
		b.Fatal(err)
	}
	full.Close()
	cold, err := metadata.Open(dir, metadata.WithReadOnly(), metadata.WithOpenFilter(expr))
	if err != nil {
		b.Fatal(err)
	}
	got, err := cold.QueryExpr(expr)
	if err != nil {
		b.Fatal(err)
	}
	st, err := cold.Stats()
	if err != nil {
		b.Fatal(err)
	}
	cold.Close()
	if len(want) == 0 || len(got) != len(want) {
		b.Fatalf("pushdown diverged: %d vs %d rows — benchmark invalid", len(got), len(want))
	}
	if len(st.Segments) < 64 || st.SkippedSegments < len(st.Segments)/2 {
		b.Fatalf("fixture shape wrong: %d segments, %d skipped — benchmark invalid",
			len(st.Segments), st.SkippedSegments)
	}

	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := metadata.Open(dir, metadata.WithReadOnly(), metadata.WithOpenFilter(expr))
			if err != nil {
				b.Fatal(err)
			}
			recs, err := r.QueryExpr(expr)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != len(want) {
				b.Fatal("query result changed — benchmark invalid")
			}
			r.Close()
		}
	})
	b.Run("fullReplay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := metadata.Open(dir, metadata.WithReadOnly())
			if err != nil {
				b.Fatal(err)
			}
			recs, err := r.QueryExpr(expr)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != len(want) {
				b.Fatal("query result changed — benchmark invalid")
			}
			r.Close()
		}
	})
}

// buildColdOpenFixture persists the 1M-record population of benchRepo1M
// into small segments (SyncNone: build speed, not ingest durability, is
// what matters here).
func buildColdOpenFixture(b *testing.B, dir string) {
	b.Helper()
	r, err := metadata.Open(dir,
		metadata.WithSegmentSize(512<<10), metadata.WithSyncPolicy(metadata.SyncNone))
	if err != nil {
		b.Fatal(err)
	}
	labels := []string{"happy", "neutral", "sad"}
	batch := make([]metadata.Record, 0, 8192)
	for i := 0; i < 1_000_000; i++ {
		label := labels[i%3]
		switch {
		case i%8192 == 4095:
			label = "alert-negative-spike"
		case i%64 == 63:
			label = "eye-contact"
		}
		batch = append(batch, metadata.Record{
			Kind: metadata.KindObservation, Frame: i / 4, FrameEnd: i/4 + 1,
			Time:   time.Duration(i/4) * 40 * time.Millisecond,
			Person: i % 16, Other: -1, Label: label, Value: float64(i%1000) / 1000,
		})
		if len(batch) == cap(batch) {
			if err := r.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := r.AppendBatch(batch); err != nil {
		b.Fatal(err)
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFollowLatency measures the append→deliver latency of a tail
// cursor (DESIGN.md §10): a follower Tails the live repository, then
// each round appends one durable record and blocks in Next until the
// CDC feed delivers it. The headline FOLLOW numbers are the p50/p99 of
// the per-round latencies (reported as p50-ns / p99-ns).
func BenchmarkFollowLatency(b *testing.B) {
	dir := b.TempDir()
	repo, err := metadata.Open(dir, metadata.WithSyncPolicy(metadata.SyncNone))
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	expr, follow, err := metadata.ParseFollow("frame >= 0 FOLLOW")
	if err != nil || !follow {
		b.Fatalf("ParseFollow: %v (follow=%v)", err, follow)
	}
	cur, err := repo.Tail(expr, metadata.TailOpts{})
	if err != nil {
		b.Fatal(err)
	}
	defer cur.Close()
	ctx := context.Background()
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, err := repo.Append(metadata.Record{
			Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
			Time:   time.Duration(i) * 40 * time.Millisecond,
			Person: i % 4, Other: -1, Label: "happy", Value: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cur.Next(ctx); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p int) float64 {
		idx := len(lat) * p / 100
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return float64(lat[idx].Nanoseconds())
	}
	b.ReportMetric(pct(50), "p50-ns")
	b.ReportMetric(pct(99), "p99-ns")
}

// BenchmarkMetadataParse measures query compilation alone.
func BenchmarkMetadataParse(b *testing.B) {
	const q = "(label = 'sad' OR label = 'shot') AND frame < 10000 AND tag.camera != 'C2'"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metadata.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T-E: HMM baseline ---

// BenchmarkHMMBaseline measures Viterbi decoding of a 1500-frame dinner
// with the supervised Gao-et-al. baseline (experiment T-E).
func BenchmarkHMMBaseline(b *testing.B) {
	var train [][]int
	var labels [][]scene.Phase
	for seed := int64(0); seed < 2; seed++ {
		sc, err := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1500, Seed: 10 + seed, Enjoyment: 0.6})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := scene.NewSimulator(sc)
		if err != nil {
			b.Fatal(err)
		}
		syms, ph := hmm.FeaturizeScenario(sim, 0.1, seed)
		train = append(train, syms)
		labels = append(labels, ph)
	}
	model, err := hmm.FitSupervised(train, labels, hmm.DiningSymbols)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1500, Seed: 99, Enjoyment: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := scene.NewSimulator(sc)
	if err != nil {
		b.Fatal(err)
	}
	syms, _ := hmm.FeaturizeScenario(sim, 0.1, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Viterbi(syms); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md design choices) ---

// BenchmarkLookAtPartySize sweeps the party size: the eye-contact
// procedure is O(n²) per frame (the paper notes n(n−1) repetitions).
func BenchmarkLookAtPartySize(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			sc, err := scene.DinnerScenario(scene.DinnerOptions{
				Persons: n, Frames: 500, Seed: 1, Enjoyment: 0.5,
			})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := scene.NewSimulator(sc)
			if err != nil {
				b.Fatal(err)
			}
			rig, err := camera.PrototypeRig(6, 5)
			if err != nil {
				b.Fatal(err)
			}
			est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 1})
			det := gaze.NewDetector()
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			obs := est.Observe(sim.FrameState(250), rig)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.LookAt(obs, rig, ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetadataAggregate measures a grouped aggregation over 50k
// records (the analytical query path).
func BenchmarkMetadataAggregate(b *testing.B) {
	repo := metadata.NewMem()
	labels := []string{"happy", "sad", "neutral", "eye-contact"}
	for i := 0; i < 50000; i++ {
		if _, err := repo.Append(metadata.Record{
			Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
			Person: i % 4, Other: -1, Label: labels[i%4], Value: float64(i%100) / 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := repo.Aggregate("kind = observation", metadata.AggAvg, metadata.GroupByPerson)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("aggregation shape changed")
		}
	}
}

// BenchmarkDatasetExport measures exporting a 20-frame annotated
// dataset (footage rendering dominates).
func BenchmarkDatasetExport(b *testing.B) {
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "dievent-ds-bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dataset.Export(dir, scene.PrototypeScenario(), rig, dataset.ExportOptions{
			MaxFrames: 20,
		}); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}
