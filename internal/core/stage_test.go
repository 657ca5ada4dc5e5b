package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
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

// TestConfigStagesOnlyAnalyzers: Config.Stages takes the three optional
// analyzers, each at most once, in either mode; New refuses every other
// name — another mode's extraction stage, a stage the run already
// lists, the manifest, an unknown name — and the error names the
// analyzers.
func TestConfigStagesOnlyAnalyzers(t *testing.T) {
	cases := []struct {
		mode   VisionMode
		inc    bool
		stages []string
		ok     bool
	}{
		{GeometricVision, false, []string{StageAttention}, true},
		{GeometricVision, false, []string{StageLiveSummary, StageDiningPhase, StageAttention}, true},
		{PixelVision, true, []string{StageDiningPhase}, true},
		{PixelVision, false, onlineStages, true},
		{GeometricVision, false, []string{StageRender}, false},
		{GeometricVision, false, []string{StageDetect}, false},
		{GeometricVision, false, []string{StageTrack}, false},
		{GeometricVision, false, []string{StageClassify}, false},
		{GeometricVision, false, []string{StagePxGaze}, false},
		{PixelVision, false, []string{StageGeoGaze}, false},
		{PixelVision, false, []string{StageGeoEmotion}, false},
		{PixelVision, false, []string{StageCollectGaze}, false},
		{GeometricVision, false, []string{StageManifest}, false},
		{GeometricVision, true, []string{StageManifest}, false},
		{PixelVision, false, []string{StageFuseEmotions}, false},
		{GeometricVision, false, []string{StageGazeAnalysis}, false},
		{GeometricVision, false, []string{StageObservations}, false},
		{GeometricVision, false, []string{StageDerived}, false},
		{GeometricVision, false, []string{StageAttention, StageAttention}, false},
		{PixelVision, false, []string{StageLiveSummary, StageDiningPhase, StageLiveSummary}, false},
		{GeometricVision, false, []string{"no-such-analyzer"}, false},
		{GeometricVision, false, []string{""}, false},
	}
	for _, c := range cases {
		_, err := New(Config{Scenario: scene.PrototypeScenario(), Mode: c.mode, Incremental: c.inc, Stages: c.stages})
		switch {
		case c.ok && err != nil:
			t.Errorf("%v incremental=%v %q: New = %v, want accepted", c.mode, c.inc, c.stages, err)
		case !c.ok && !errors.Is(err, ErrBadConfig):
			t.Errorf("%v incremental=%v %q: New = %v, want ErrBadConfig", c.mode, c.inc, c.stages, err)
		case !c.ok && slices.Contains(analyzerStages, c.stages[0]):
			// A repeated analyzer: the message names the repeat.
		case !c.ok:
			for _, a := range analyzerStages {
				if !strings.Contains(err.Error(), a) {
					t.Errorf("%v %q: error %q does not name analyzer %s", c.mode, c.stages, err, a)
				}
			}
		}
	}
}

// TestStageOrderGolden pins each phase's stage list, for both modes with
// and without a manifest, with no analyzers and with all three named
// out of order: analyzers run after the analysis chain in the order
// Config.Stages names them.
func TestStageOrderGolden(t *testing.T) {
	type phases [numPhases][]string
	geoExtract := phases{
		PhasePrepare: {StageGeoGaze, StageGeoEmotion},
		PhaseMerge:   {StageCollectGaze, StageFuseEmotions},
	}
	pxExtract := phases{
		PhasePrepare: {StageRender, StageDetect},
		PhaseOrdered: {StageTrack, StageClassify},
		PhaseMerge:   {StageFuseEmotions, StagePxGaze},
	}
	chain := []string{StageGazeAnalysis, StageMultilayer, StageObservations}
	extras := []string{StageLiveSummary, StageAttention, StageDiningPhase}
	for _, mode := range []VisionMode{GeometricVision, PixelVision} {
		for _, inc := range []bool{false, true} {
			for _, stages := range [][]string{nil, extras} {
				want := geoExtract
				if mode == PixelVision {
					want = pxExtract
				}
				want[PhaseFrame] = append(append([]string(nil), chain...), stages...)
				want[PhaseFinal] = []string{StageDerived, StageSummarize}
				if inc {
					want[PhaseFinal] = []string{StageDerived, StageManifest, StageSummarize}
				}
				p, err := New(Config{
					Scenario: scene.PrototypeScenario(), Mode: mode, Incremental: inc,
					Stages: stages, Classifier: engineTestClassifier(t),
				})
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := p.buildStages(inc, 10)
				if err != nil {
					t.Fatal(err)
				}
				var got phases
				for ph, sts := range g.byPhase {
					for _, st := range sts {
						got[ph] = append(got[ph], st.Name)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v incremental=%v stages=%q:\n got %q\nwant %q", mode, inc, stages, got, want)
				}
			}
		}
	}
}

// TestBuiltinStageShapes builds every built-in stage in both modes and
// checks it carries its own name and the callbacks its phase runs; the
// analyzers are frame-phase stages.
func TestBuiltinStageShapes(t *testing.T) {
	for _, mode := range []VisionMode{GeometricVision, PixelVision} {
		p, err := New(Config{Scenario: scene.PrototypeScenario(), Mode: mode, Classifier: engineTestClassifier(t)})
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := p.buildStages(true, 10)
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range builtinStages {
			st, err := f(b)
			if err != nil {
				t.Fatalf("%v: building %s: %v", mode, name, err)
			}
			if st.Name != name {
				t.Errorf("%v: stage %q built under name %q", mode, name, st.Name)
			}
			if err := checkStageShape(st); err != nil {
				t.Errorf("%v: %v", mode, err)
			}
		}
	}
	for _, name := range analyzerStages {
		p, err := New(Config{Scenario: scene.PrototypeScenario(), Stages: []string{name}})
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := p.buildStages(false, 10)
		if err != nil {
			t.Fatal(err)
		}
		if st := g.stages[len(g.stages)-1]; st.Name != name || st.Phase != PhaseFrame {
			t.Errorf("analyzer %s: last stage %s in phase %v, want itself in %v", name, st.Name, st.Phase, PhaseFrame)
		}
	}
}

// checkStageShape validates the phase ↔ callback pairing.
func checkStageShape(st *Stage) error {
	bad := func(why string) error {
		return fmt.Errorf("stage %q (%v): %s", st.Name, st.Phase, why)
	}
	switch st.Phase {
	case PhasePrepare, PhaseOrdered:
		if st.RunCam == nil || st.RunFrame != nil || st.RunFinal != nil {
			return bad("per-camera phases take exactly RunCam")
		}
	case PhaseMerge:
		if st.RunFrame == nil || st.RunCam != nil || st.RunFinal != nil {
			return bad("merge stages take exactly RunFrame")
		}
	case PhaseFrame:
		if st.RunFrame == nil || st.RunCam != nil {
			return bad("frame stages take RunFrame (plus optional RunFinal)")
		}
	case PhaseFinal:
		if st.RunFinal == nil || st.RunCam != nil || st.RunFrame != nil {
			return bad("final stages take exactly RunFinal")
		}
	default:
		return bad("unknown phase")
	}
	if st.Emit < 0 {
		return bad("negative Emit")
	}
	if (st.Emit > 0 || st.RunEmit != nil) && st.Phase != PhaseFrame {
		return bad("windowed operators (Emit/RunEmit) are frame-phase only")
	}
	if st.RunEmit != nil && st.Emit <= 0 {
		return bad("RunEmit requires an Emit cadence")
	}
	if st.Emit > 0 && st.RunEmit == nil {
		return bad("Emit cadence without RunEmit")
	}
	return nil
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
	boom := errors.New("stage exploded")
	cfg.testStages = map[string]stageFactory{"exploding": func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "exploding", Version: 1, Phase: PhasePrepare,
			RunCam: func(_ *runEnv, a *Artifacts) error {
				if a.FS.Index == 60 {
					return boom
				}
				return nil
			},
		}, nil
	}}
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
	boom := map[string]stageFactory{"boom": func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "boom", Version: 1, Phase: PhaseFrame,
			RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
				if fa.Index == 3 {
					panic("boom exploded at frame 3")
				}
				return nil
			},
		}, nil
	}}
	p, err := New(Config{
		Scenario:   scene.PrototypeScenario(),
		Mode:       GeometricVision,
		Gaze:       gaze.EstimatorOptions{Seed: 21},
		MaxFrames:  120,
		Workers:    1,
		Stages:     []string{"boom"},
		testStages: boom,
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
