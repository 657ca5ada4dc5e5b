package core

import (
	"errors"
	"testing"

	"repro/internal/camera"
	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/layers"
	"repro/internal/metadata"
	"repro/internal/scene"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty scenario should fail")
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), EmotionNoise: 2}); !errors.Is(err, ErrBadConfig) {
		t.Error("bad emotion noise should fail")
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), DetectEvery: -1}); !errors.Is(err, ErrBadConfig) {
		t.Error("negative cadence should fail")
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), Workers: -1}); !errors.Is(err, ErrBadConfig) {
		t.Error("negative worker count should fail")
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), MaxFrames: -1}); !errors.Is(err, ErrBadConfig) {
		t.Error("negative max frames should fail")
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), PixelCameras: -2}); !errors.Is(err, ErrBadConfig) {
		t.Error("negative pixel camera count should fail")
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), Mode: VisionMode(9)}); !errors.Is(err, ErrBadConfig) {
		t.Error("unknown vision mode should fail at New, not mid-run")
	}
}

// TestNewValidationZeroFrames: a scenario without frames must be
// rejected up front with a descriptive error, not analysed into an
// empty result.
func TestNewValidationZeroFrames(t *testing.T) {
	sc := scene.PrototypeScenario()
	sc.NumFrames = 0
	if _, err := New(Config{Scenario: sc}); err == nil {
		t.Error("zero-frame scenario should fail")
	}
	sc.NumFrames = -5
	if _, err := New(Config{Scenario: sc}); err == nil {
		t.Error("negative-frame scenario should fail")
	}
}

// TestNewValidationNilRig: a nil rig selects the default prototype
// rig, which needs positive room dimensions — previously this
// surfaced as an opaque camera-package error; now New names the fix.
func TestNewValidationNilRig(t *testing.T) {
	sc := scene.PrototypeScenario()
	sc.RoomW = 0
	for _, mode := range []VisionMode{GeometricVision, PixelVision} {
		_, err := New(Config{Scenario: sc, Mode: mode})
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("mode %v: nil rig with zero room dims: err = %v, want ErrBadConfig", mode, err)
		}
	}
}

// TestNewValidationPixelRigIntrinsics: pixel vision renders through
// the rig's cameras, so an uncalibrated camera (no sensor dimensions)
// must be rejected at New instead of panicking deep in the renderer.
func TestNewValidationPixelRigIntrinsics(t *testing.T) {
	full, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	bare := *full.Cameras[0]
	bare.In.W, bare.In.H = 0, 0
	rig, err := camera.NewRig(25, &bare)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), Rig: rig, Mode: PixelVision}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("pixel mode with intrinsics-less camera: err = %v, want ErrBadConfig", err)
	}
	// Geometric vision never renders: the same rig is fine there.
	if _, err := New(Config{Scenario: scene.PrototypeScenario(), Rig: rig, Mode: GeometricVision}); err != nil {
		t.Errorf("geometric mode should accept the rig: %v", err)
	}
}

// TestGeometricPipelineEndToEnd runs the full prototype event through
// the geometric pipeline and checks the paper's headline outputs.
func TestGeometricPipelineEndToEnd(t *testing.T) {
	p, err := New(Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	if res.FramesAnalyzed != 610 {
		t.Errorf("analyzed %d frames, want 610", res.FramesAnalyzed)
	}
	// Fig. 9 shape: zero diagonal, P1 column dominant.
	sum := res.Layers.Summary
	for i := range sum.IDs {
		if sum.Counts[i][i] != 0 {
			t.Error("summary diagonal must be zero")
		}
	}
	if sum.Dominant() != 0 {
		t.Errorf("dominant = P%d, want P1", sum.Dominant()+1)
	}
	// P1→P3 should be the largest single entry (truth: 357/610 frames)
	// modulo estimator noise.
	if got := sum.Counts[0][2]; got < 280 || got > 420 {
		t.Errorf("P1→P3 count = %d, want ≈ 357", got)
	}
	// Eye-contact events exist (the prototype scripts several mutual
	// episodes).
	if len(res.Layers.Events) == 0 {
		t.Error("no eye-contact events detected")
	}
	// Summary present with dominance.
	if res.Summary == nil || res.Summary.Dominant != 0 {
		t.Errorf("summary dominant = %+v", res.Summary)
	}
	// Timings cover the core stages.
	names := map[string]bool{}
	for _, st := range res.Timings {
		names[st.Name] = true
	}
	for _, want := range []string{"feature-extraction", "gaze-analysis", "multilayer", "metadata", "summarize"} {
		if !names[want] {
			t.Errorf("missing stage timing %q (have %v)", want, res.Timings)
		}
	}
}

func TestPipelineMetadataQueryable(t *testing.T) {
	p, err := New(Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	// Context records.
	got, err := res.Repo.Query("kind = context AND label = 'participant'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("%d participant records, want 4", len(got))
	}
	// The paper's showcase query: scenes where P1 was in eye contact.
	got, err = res.Repo.Query("label = 'eye-contact' AND person = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("no P1 eye-contact events stored")
	}
	// Per-frame emotion observations exist and are bounded.
	got, err = res.Repo.Query("kind = observation AND frame < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 40 {
		t.Errorf("%d early observations", len(got))
	}
	// lookat-count records reproduce Fig. 9 entries.
	got, err = res.Repo.Query("label = 'lookat-count' AND person = 1 AND other = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("lookat-count P1→P3 records = %d", len(got))
	}
	if v := got[0].Value; v < 280 || v > 420 {
		t.Errorf("stored P1→P3 count = %v", v)
	}
}

func TestPipelinePersistentRepo(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		Mode:      GeometricVision,
		Gaze:      gaze.EstimatorOptions{Seed: 3},
		RepoDir:   dir,
		MaxFrames: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	n := res.Repo.Len()
	if err := res.Repo.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: everything survived.
	r2, err := metadata.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != n {
		t.Errorf("recovered %d records, want %d", r2.Len(), n)
	}
}

func TestPipelineMaxFrames(t *testing.T) {
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		Mode:      GeometricVision,
		MaxFrames: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if res.FramesAnalyzed != 50 {
		t.Errorf("analyzed %d, want 50", res.FramesAnalyzed)
	}
}

// TestPixelPipelineShortRun exercises the full pixel path — render,
// detect, track, recognize, classify — on a short prototype prefix.
func TestPixelPipelineShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	p, err := New(Config{
		Scenario:    scene.PrototypeScenario(),
		Mode:        PixelVision,
		Gaze:        gaze.EstimatorOptions{Seed: 4},
		MaxFrames:   40,
		DetectEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	// The pixel path must have produced emotion observations for at
	// least two of the four participants (some are far from the
	// primary camera).
	recs, err := res.Repo.Query("kind = observation")
	if err != nil {
		t.Fatal(err)
	}
	persons := map[int]bool{}
	for _, r := range recs {
		persons[r.Person] = true
	}
	if len(persons) < 2 {
		t.Errorf("pixel vision recognized %d participants (%v), want ≥ 2; %d obs",
			len(persons), persons, len(recs))
	}
}

// TestUntrainedClassifierFailsRun: a zero-value classifier cannot
// classify any face, and the pixel run must say so instead of
// succeeding with no emotion observations.
func TestUntrainedClassifierFailsRun(t *testing.T) {
	p, err := New(Config{
		Scenario:    scene.PrototypeScenario(),
		Mode:        PixelVision,
		Gaze:        gaze.EstimatorOptions{Seed: 4},
		MaxFrames:   6,
		DetectEvery: 4,
		Classifier:  &emotion.Classifier{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err == nil {
		res.Repo.Close()
		t.Fatal("run with an untrained classifier succeeded")
	}
	if !errors.Is(err, emotion.ErrNotTrained) {
		t.Fatalf("err = %v, want emotion.ErrNotTrained", err)
	}
}

// TestDefaultClassifierFingerprintGolden pins the pipeline's default
// classifier: training is deterministic, so its fingerprint covers
// every trained weight. Pixel-mode manifests record it, and a change
// here marks the classify stage stale on every existing repository.
func TestDefaultClassifierFingerprintGolden(t *testing.T) {
	clf, err := trainDefaultClassifier()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clf.Fingerprint(), uint64(0xe2f68ba7aada8ddf); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
}

func TestPipelineWithVideoParsing(t *testing.T) {
	p, err := New(Config{
		Scenario:   scene.PrototypeScenario(),
		Mode:       GeometricVision,
		MaxFrames:  120,
		ParseVideo: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if res.Parse == nil {
		t.Fatal("expected a parse")
	}
	// Single fixed camera: exactly one shot.
	if len(res.Parse.Shots) != 1 {
		t.Errorf("static footage parsed into %d shots", len(res.Parse.Shots))
	}
	// Shot records written.
	got, err := res.Repo.Query("label = 'shot'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("%d shot records", len(got))
	}
}

func TestGeometricEmotionNoiseDeterministic(t *testing.T) {
	run := func() float64 {
		p, err := New(Config{
			Scenario:     scene.PrototypeScenario(),
			Mode:         GeometricVision,
			Gaze:         gaze.EstimatorOptions{Seed: 9},
			EmotionNoise: 0.2,
			MaxFrames:    200,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Repo.Close()
		return res.Layers.MeanOH()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("pipeline not deterministic: %v vs %v", a, b)
	}
}

func TestConfuseStaysInVocabulary(t *testing.T) {
	r := emoRand(1, 2, 3)
	for _, l := range emotion.AllLabels() {
		for i := 0; i < 20; i++ {
			got := confuse(l, r)
			if !got.Valid() {
				t.Fatalf("confuse(%v) = invalid %d", l, got)
			}
			if got == l {
				t.Fatalf("confuse(%v) returned the same label", l)
			}
		}
	}
}

// TestPipelineWithPaperRig runs the pipeline on the two-camera Fig. 2
// platform: fewer viewpoints, occasional occlusion, but the analysis
// must still complete and find the dominant participant.
func TestPipelineWithPaperRig(t *testing.T) {
	rig, err := camera.PaperRig(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Scenario: scene.PrototypeScenario(),
		Rig:      rig,
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if res.FramesAnalyzed != 610 {
		t.Errorf("frames = %d", res.FramesAnalyzed)
	}
	if res.Layers.Summary.Dominant() != 0 {
		t.Errorf("dominant = P%d, want P1 even with two cameras",
			res.Layers.Summary.Dominant()+1)
	}
}

// TestPipelineSingleCameraDegradesGracefully drops the rig to one
// camera: cross-camera transforms vanish and some heads may leave the
// frame, but the pipeline must neither fail nor emit garbage.
func TestPipelineSingleCameraDegradesGracefully(t *testing.T) {
	full, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	single, err := camera.NewRig(25, full.Cameras[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		Rig:       single,
		Mode:      GeometricVision,
		Gaze:      gaze.EstimatorOptions{Seed: 7},
		MaxFrames: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	// Counts must stay within physical bounds.
	for i := range res.Layers.Summary.IDs {
		for j := range res.Layers.Summary.IDs {
			c := res.Layers.Summary.Counts[i][j]
			if c < 0 || c > 200 {
				t.Fatalf("count[%d][%d] = %d out of bounds", i, j, c)
			}
		}
	}
}

// TestPixelVisionMultiCamera checks that analysing extra cameras never
// reduces coverage: participants observed with 2 cameras ⊇ those with 1.
func TestPixelVisionMultiCamera(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	observed := func(cams int) map[int]bool {
		p, err := New(Config{
			Scenario:     scene.PrototypeScenario(),
			Mode:         PixelVision,
			Gaze:         gaze.EstimatorOptions{Seed: 4},
			MaxFrames:    30,
			DetectEvery:  4,
			PixelCameras: cams,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Repo.Close()
		recs, err := res.Repo.Query("kind = observation")
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]bool{}
		for _, r := range recs {
			out[r.Person] = true
		}
		return out
	}
	one := observed(1)
	two := observed(2)
	for id := range one {
		if !two[id] {
			t.Errorf("P%d observed with 1 camera but lost with 2", id+1)
		}
	}
	if len(two) < len(one) {
		t.Errorf("coverage shrank: %d → %d participants", len(one), len(two))
	}
}

// TestSpeakerInferenceOnDinner evaluates gaze-based speaker inference
// against the dinner script's ground truth during conversation phases,
// where listeners watch the speaker.
func TestSpeakerInferenceOnDinner(t *testing.T) {
	sc, err := scene.DinnerScenario(scene.DinnerOptions{
		Persons: 4, Frames: 2000, Seed: 31, Enjoyment: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Scenario: sc,
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	sim, err := scene.NewSimulator(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Truth restricted to talking/ordering frames (listeners watch the
	// speaker there; while eating, gaze goes to plates).
	truth := make([]int, res.FramesAnalyzed)
	considered := 0
	for i := range truth {
		fs := sim.FrameState(i)
		truth[i] = -1
		if fs.Phase != scene.PhaseTalking && fs.Phase != scene.PhaseOrdering {
			continue
		}
		for _, ps := range fs.Persons {
			if ps.Speaking {
				truth[i] = ps.ID
				considered++
			}
		}
	}
	if considered < 100 {
		t.Fatalf("only %d speaking frames in truth", considered)
	}
	acc := layers.SpeakerAccuracy(res.Layers.InferredSpeakers, truth)
	// Chance over 4 speakers ≈ 0.25; gaze-based inference should do far
	// better despite the 25% of listeners scripted to look elsewhere.
	if acc < 0.6 {
		t.Errorf("speaker inference accuracy = %v, want ≥ 0.6", acc)
	}
}
