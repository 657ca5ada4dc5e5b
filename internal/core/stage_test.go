package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gaze"
	"repro/internal/metadata"
	"repro/internal/scene"
)

// --- graph validation ---

func TestConfigRejectsUnknownStage(t *testing.T) {
	_, err := New(Config{
		Scenario: scene.PrototypeScenario(),
		Stages:   []string{"no-such-analyzer"},
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown stage: err = %v, want ErrBadConfig", err)
	}
}

func TestConfigRejectsDuplicateStage(t *testing.T) {
	// Both a frame-chain stage and an end-of-run stage: the whole base
	// set must be assembled before extras are validated, so the error
	// lands at New rather than mid-run.
	for _, dup := range []string{StageMultilayer, StageSummarize} {
		_, err := New(Config{
			Scenario: scene.PrototypeScenario(),
			Stages:   []string{dup},
		})
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("duplicate stage %s: err = %v, want ErrBadConfig", dup, err)
		}
	}
}

func TestGraphRejectsMissingProvider(t *testing.T) {
	reg := newRegistry()
	if err := reg.register("needs-ghost", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "needs-ghost", Version: 1, Phase: PhaseFrame,
			Needs:    []ArtifactKey{"ghost"},
			RunFrame: func(*runEnv, *FrameArtifacts) error { return nil },
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		registry:  reg,
		Stages:    []string{"needs-ghost"},
		MaxFrames: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing provider: err = %v, want ErrBadConfig", err)
	}
}

func TestGraphRejectsDependencyCycle(t *testing.T) {
	reg := newRegistry()
	mk := func(name string, needs, provides ArtifactKey) {
		if err := reg.register(name, func(*stageBuild) (*Stage, error) {
			return &Stage{
				Name: name, Version: 1, Phase: PhasePrepare,
				Needs: []ArtifactKey{needs}, Provides: []ArtifactKey{provides},
				RunCam: func(*runEnv, *Artifacts) error { return nil },
			}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("cyc-a", "key-b", "key-a")
	mk("cyc-b", "key-a", "key-b")
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		registry:  reg,
		Stages:    []string{"cyc-a", "cyc-b"},
		MaxFrames: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("cycle: err = %v, want ErrBadConfig", err)
	}
}

func TestGraphOrdersProviderBeforeConsumer(t *testing.T) {
	reg := newRegistry()
	var order []string
	var mu sync.Mutex
	record := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	// Requested consumer-first: the topological sort must still run the
	// provider first.
	if err := reg.register("t-consumer", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "t-consumer", Version: 1, Phase: PhasePrepare,
			Needs:  []ArtifactKey{"t-key"},
			RunCam: func(_ *runEnv, _ *Artifacts) error { record("t-consumer"); return nil },
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.register("t-provider", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "t-provider", Version: 1, Phase: PhasePrepare,
			Provides: []ArtifactKey{"t-key"},
			RunCam:   func(_ *runEnv, _ *Artifacts) error { record("t-provider"); return nil },
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		registry:  reg,
		Stages:    []string{"t-consumer", "t-provider"},
		MaxFrames: 1,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Repo.Close()
	if len(order) != 2 || order[0] != "t-provider" || order[1] != "t-consumer" {
		t.Errorf("execution order = %v, want provider before consumer", order)
	}
}

// TestGraphRejectsExpiredArtifacts: gray planes are pooled (released
// after the ordered phase) and Track pointers are live tracker state —
// declaring a Need on them from a later phase must fail graph
// validation instead of reading nil or racing the lane consumer.
func TestGraphRejectsExpiredArtifacts(t *testing.T) {
	cases := []struct {
		name  string
		phase StagePhase
		key   ArtifactKey
	}{
		{"gray-at-merge", PhaseMerge, ArtGray},
		{"tracks-at-merge", PhaseMerge, ArtTracks},
		{"tracks-at-frame", PhaseFrame, ArtTracks},
	}
	for _, c := range cases {
		reg := newRegistry()
		c := c
		if err := reg.register(c.name, func(*stageBuild) (*Stage, error) {
			return &Stage{
				Name: c.name, Version: 1, Phase: c.phase,
				Needs:    []ArtifactKey{c.key},
				RunFrame: func(*runEnv, *FrameArtifacts) error { return nil },
			}, nil
		}); err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{
			Scenario:   scene.PrototypeScenario(),
			Mode:       PixelVision,
			Classifier: engineTestClassifier(t),
			MaxFrames:  3,
			registry:   reg,
			Stages:     []string{c.name},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	reg := newRegistry()
	err := reg.register(StageRender, func(*stageBuild) (*Stage, error) { return nil, nil })
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate registration: err = %v, want ErrBadConfig", err)
	}
}

// --- artifact sharing ---

// TestIntegralsBuiltOncePerCameraFrame is the artifact-store contract:
// when the detect stage plus two extra registered analyzers all
// consume the summed-area tables, BuildIntegrals still runs exactly
// once per (camera, frame) — on the worker pool too.
func TestIntegralsBuiltOncePerCameraFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	reg := newRegistry()
	for _, name := range []string{"emotion-integrals", "gaze-integrals"} {
		name := name
		if err := reg.register(name, func(*stageBuild) (*Stage, error) {
			return &Stage{
				Name: name, Version: 1, Phase: PhasePrepare,
				Needs:    []ArtifactKey{ArtGray, ArtIntegrals},
				Provides: []ArtifactKey{ArtifactKey(name)},
				RunCam: func(_ *runEnv, a *Artifacts) error {
					in, sq := a.Integrals()
					if in == nil || sq == nil {
						t.Error("nil integral tables")
					}
					return nil
				},
			}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	builds := map[[2]int]int{}
	integralsHook = func(cam, frame int) {
		mu.Lock()
		builds[[2]int{cam, frame}]++
		mu.Unlock()
	}
	defer func() { integralsHook = nil }()

	const frames, cams = 9, 2
	p, err := New(Config{
		Scenario:     scene.PrototypeScenario(),
		Mode:         PixelVision,
		Gaze:         gaze.EstimatorOptions{Seed: 4},
		Classifier:   engineTestClassifier(t),
		MaxFrames:    frames,
		DetectEvery:  1, // every frame on cadence: all three stages consume
		PixelCameras: cams,
		Workers:      4,
		registry:     reg,
		Stages:       []string{"emotion-integrals", "gaze-integrals"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Repo.Close()

	if len(builds) != frames*cams {
		t.Errorf("built tables for %d (camera, frame) pairs, want %d", len(builds), frames*cams)
	}
	for key, n := range builds {
		if n != 1 {
			t.Errorf("camera %d frame %d built %d times, want exactly 1", key[0], key[1], n)
		}
	}
}

// --- attention-span analyzer ---

func TestAttentionAnalyzerSpans(t *testing.T) {
	ids := []int{0, 1, 2}
	an := newAttentionAnalyzer(ids)
	// P0 fixates P2 for 20 frames, then P1 for 5 (dropped: too short),
	// then nothing. P1 fixates P0 throughout (closed by finalize).
	for f := 0; f < 40; f++ {
		m := gaze.NewMatrix(ids)
		switch {
		case f < 20:
			m.M[0][2] = 1
		case f < 25:
			m.M[0][1] = 1
		}
		m.M[1][0] = 1
		an.push(&FrameArtifacts{Index: f, FS: scene.FrameState{Index: f}, LookAt: m})
	}
	res := an.finalize()
	want := []AttentionSpan{
		{Person: 0, Target: 2, Start: 0, End: 20},
		{Person: 1, Target: 0, Start: 0, End: 40},
	}
	if !reflect.DeepEqual(res.Spans, want) {
		t.Errorf("spans = %+v, want %+v", res.Spans, want)
	}
	if res.Stats[0].Spans != 1 || res.Stats[0].LongestFrames != 20 {
		t.Errorf("P0 stats = %+v", res.Stats[0])
	}
	if res.Stats[1].MeanFrames != 40 {
		t.Errorf("P1 mean = %v, want 40", res.Stats[1].MeanFrames)
	}
	if res.Stats[2].Spans != 0 {
		t.Errorf("P2 should have no spans: %+v", res.Stats[2])
	}
}

// TestAttentionStagePluggedIn proves the plug-in path end to end: the
// analyzer contributes a typed result and a derived record layer, and
// the rest of the record log is unchanged.
func TestAttentionStagePluggedIn(t *testing.T) {
	base := Config{
		Scenario:  scene.PrototypeScenario(),
		Mode:      GeometricVision,
		Gaze:      gaze.EstimatorOptions{Seed: 13},
		MaxFrames: 200,
	}
	plain := mustRun(t, base)
	defer plain.Repo.Close()
	if plain.Attention != nil {
		t.Error("attention layer produced without the stage enabled")
	}

	withAttn := base
	withAttn.Stages = []string{StageAttention}
	res := mustRun(t, withAttn)
	defer res.Repo.Close()

	if res.Attention == nil || len(res.Attention.Spans) == 0 {
		t.Fatalf("attention layer missing or empty: %+v", res.Attention)
	}
	spans, err := res.Repo.Query("label = 'attention-span'")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(res.Attention.Spans) {
		t.Errorf("%d attention-span records, want %d", len(spans), len(res.Attention.Spans))
	}
	means, err := res.Repo.Query("label = 'attention-mean'")
	if err != nil {
		t.Fatal(err)
	}
	if len(means) == 0 {
		t.Error("no attention-mean records")
	}
	// The prototype scripts long fixations; spans must stay in range
	// and reference scripted participants.
	for _, s := range res.Attention.Spans {
		if s.Start < 0 || s.End > 200 || s.Frames() < minAttentionFrames {
			t.Errorf("span out of range: %+v", s)
		}
	}

	// Everything that is not the attention layer is byte-identical to
	// the plain run, modulo record IDs (the extra records shift later
	// IDs).
	strip := func(res *Result) []metadata.Record {
		var out []metadata.Record
		res.Repo.Scan(func(r metadata.Record) bool {
			if r.Label != "attention-span" && r.Label != "attention-mean" {
				r.ID = 0
				out = append(out, r)
			}
			return true
		})
		return out
	}
	if !reflect.DeepEqual(strip(plain), strip(res)) {
		t.Error("enabling the attention stage changed unrelated records")
	}
}

// --- engine error path ---

// failVision is a minimal streamed vision for engine failure tests.
type failVision struct {
	lanes int
	slow  time.Duration
}

func (v *failVision) streams() int    { return v.lanes }
func (v *failVision) newScratch() any { return nil }
func (v *failVision) prepare(_ int, fs scene.FrameState, _ any) any {
	if v.slow > 0 {
		time.Sleep(v.slow)
	}
	return fs.Index
}
func (v *failVision) step(_ int, _ scene.FrameState, prep any) (any, error) { return prep, nil }
func (v *failVision) finish(_ scene.FrameState, perStream []any) (any, error) {
	return perStream[0], nil
}
func (v *failVision) extract(fs scene.FrameState) (any, error) { return fs.Index, nil }

// TestRunStreamedSinkFailureStopsWorkers is the engine's error-path
// contract: a sink that fails mid-stream must stop the feeder, the
// workers and the per-stream consumers promptly — no goroutine leak,
// no deadlock — and surface the sink's error. Run under -race by
// check.sh.
func TestRunStreamedSinkFailureStopsWorkers(t *testing.T) {
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink exploded")
	for _, lanes := range []int{1, 3} {
		before := runtime.NumGoroutine()
		sink := func(i int, _ scene.FrameState, _ any) error {
			if i == 50 {
				return boom
			}
			return nil
		}
		err := runStreamed(nil, sim.FrameState, 400, 8, &failVision{lanes: lanes, slow: 20 * time.Microsecond},
			newStageTimer(), sink)
		if !errors.Is(err, boom) {
			t.Fatalf("lanes=%d: err = %v, want the sink error", lanes, err)
		}
		// All engine goroutines must drain; poll briefly — workers may
		// still be observing the done channel when runStreamed returns.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("lanes=%d: %d goroutines before, %d after — engine leaked", lanes, before, g)
		}
	}
}

// TestRunStreamedStepFailurePropagates covers the other error path:
// a stage failure inside the ordered phase cancels the run the same
// way.
func TestRunStreamedStepFailurePropagates(t *testing.T) {
	cfg := Config{
		Scenario:  scene.PrototypeScenario(),
		Mode:      GeometricVision,
		Gaze:      gaze.EstimatorOptions{Seed: 1},
		MaxFrames: 100,
		Workers:   4,
	}
	reg := newRegistry()
	boom := errors.New("stage exploded")
	if err := reg.register("exploding", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "exploding", Version: 1, Phase: PhasePrepare,
			RunCam: func(_ *runEnv, a *Artifacts) error {
				if a.FS.Index == 60 {
					return boom
				}
				return nil
			},
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg.registry = reg
	cfg.Stages = []string{"exploding"}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the stage error", err)
	}
}

// TestStrictRunPanicPropagates: a stage panic fails the run fast —
// stage callbacks run with no recover.
func TestStrictRunPanicPropagates(t *testing.T) {
	reg := newRegistry()
	if err := reg.register("boom", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "boom", Version: 1, Phase: PhaseFrame,
			RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
				if fa.Index == 3 {
					panic("boom exploded at frame 3")
				}
				return nil
			},
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Scenario:  scene.PrototypeScenario(),
		Mode:      GeometricVision,
		Gaze:      gaze.EstimatorOptions{Seed: 21},
		MaxFrames: 120,
		Workers:   1,
		Stages:    []string{"boom"},
		registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a run absorbed a stage panic, want propagation")
		}
	}()
	p.Run()
}
