package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gaze"
	"repro/internal/metadata"
	"repro/internal/scene"
)

func baseIncrementalConfig() Config {
	return Config{
		Scenario:    scene.PrototypeScenario(),
		Mode:        GeometricVision,
		Gaze:        gaze.EstimatorOptions{Seed: 21},
		MaxFrames:   200,
		Incremental: true,
	}
}

func captureResult(t *testing.T, res *Result) runResult {
	t.Helper()
	var recs []metadata.Record
	res.Repo.Scan(func(r metadata.Record) bool {
		recs = append(recs, r)
		return true
	})
	return runResult{layers: res.Layers, summary: res.Summary, records: recs}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIncrementalNothingStale replays every raw layer: no extraction,
// byte-identical output, and the manifest diff reports the gaze and
// emotion chains as reused. The online-stages case pins that replayed
// frames go through the same per-frame bookkeeping as extracted ones:
// the windowed analyzers see every frame and the frame count is the
// sink's own.
func TestIncrementalNothingStale(t *testing.T) {
	t.Run("base", func(t *testing.T) { checkIncrementalNothingStale(t, nil) })
	t.Run("online-stages", func(t *testing.T) { checkIncrementalNothingStale(t, onlineStages) })
}

func checkIncrementalNothingStale(t *testing.T, stages []string) {
	cfg := baseIncrementalConfig()
	cfg.Stages = stages
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	want := captureResult(t, prev)
	got := captureResult(t, res)
	if !reflect.DeepEqual(want.records, got.records) {
		t.Errorf("incremental records differ from the originating run (%d vs %d)",
			len(want.records), len(got.records))
	}
	if !reflect.DeepEqual(want.layers, got.layers) {
		t.Error("incremental layers differ")
	}
	if res.FramesAnalyzed != cfg.MaxFrames || prev.FramesAnalyzed != cfg.MaxFrames {
		t.Errorf("frames analyzed: incremental %d, originating %d, want %d",
			res.FramesAnalyzed, prev.FramesAnalyzed, cfg.MaxFrames)
	}
	if !reflect.DeepEqual(prev.Phases, res.Phases) {
		t.Errorf("incremental phases %v differ from the originating run's %v", res.Phases, prev.Phases)
	}
	if !reflect.DeepEqual(prev.Attention, res.Attention) {
		t.Error("incremental attention layer differs from the originating run's")
	}
	if stages != nil && (len(res.Phases) == 0 || res.Attention == nil) {
		t.Errorf("online stages produced no phases (%v) or no attention layer (%v)", res.Phases, res.Attention)
	}
	if len(res.StaleStages) != 0 {
		t.Errorf("nothing changed but stale stages = %v", res.StaleStages)
	}
	reused := map[string]bool{}
	for _, n := range res.ReusedStages {
		reused[n] = true
	}
	for _, wantName := range []string{StageGeoGaze, StageGeoEmotion} {
		if !reused[wantName] {
			t.Errorf("stage %s not reported reused (reused = %v)", wantName, res.ReusedStages)
		}
	}
}

// TestIncrementalEmotionStale is the tentpole scenario: a changed
// emotion model re-emits only the emotion + downstream derived
// records, replaying the (dominant) gaze chain from the repository —
// and the result is byte-identical to a full run of the new config.
func TestIncrementalEmotionStale(t *testing.T) {
	cfg := baseIncrementalConfig()
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	next := cfg
	next.EmotionNoise = 0.25 // "retrained" model: different error profile
	full := mustRun(t, next)
	defer full.Repo.Close()

	p, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	assertRunsEqual(t, captureResult(t, full), captureResult(t, res), "emotion-stale")

	stale := map[string]bool{}
	for _, n := range res.StaleStages {
		stale[n] = true
	}
	if !stale[StageGeoEmotion] {
		t.Errorf("geo-emotion not stale: %v", res.StaleStages)
	}
	reused := map[string]bool{}
	for _, n := range res.ReusedStages {
		reused[n] = true
	}
	if !reused[StageGeoGaze] {
		t.Errorf("gaze chain not reused on an emotion-only change: %v", res.ReusedStages)
	}
}

// TestIncrementalGazeStale flips the staleness: a re-tuned gaze
// estimator recomputes the gaze chain and replays emotions.
func TestIncrementalGazeStale(t *testing.T) {
	cfg := baseIncrementalConfig()
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	next := cfg
	next.Gaze.GazeNoiseDeg = 5
	full := mustRun(t, next)
	defer full.Repo.Close()

	p, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()

	assertRunsEqual(t, captureResult(t, full), captureResult(t, res), "gaze-stale")
	reused := map[string]bool{}
	for _, n := range res.ReusedStages {
		reused[n] = true
	}
	if !reused[StageGeoEmotion] {
		t.Errorf("emotion layer not reused on a gaze-only change: %v", res.ReusedStages)
	}
}

// TestIncrementalForcedStale covers -rederive: forcing a stage stale
// re-runs its chain even with an unchanged config, and unknown names
// are rejected.
func TestIncrementalForcedStale(t *testing.T) {
	cfg := baseIncrementalConfig()
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo, StageGeoEmotion)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	stale := map[string]bool{}
	for _, n := range res.StaleStages {
		stale[n] = true
	}
	if !stale[StageGeoEmotion] {
		t.Errorf("forced stage not stale: %v", res.StaleStages)
	}
	assertRunsEqual(t, captureResult(t, prev), captureResult(t, res), "forced-stale")

	if _, err := p.RunIncremental(prev.Repo, "no-such-stage"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown forced stage: err = %v, want ErrBadConfig", err)
	}
}

// TestIncrementalNoManifest rejects repositories without a manifest.
func TestIncrementalNoManifest(t *testing.T) {
	cfg := baseIncrementalConfig()
	cfg.Incremental = false
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	p, err := New(baseIncrementalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIncremental(prev.Repo); !errors.Is(err, ErrNoManifest) {
		t.Errorf("err = %v, want ErrNoManifest", err)
	}
}

// TestIncrementalIdentityMismatch falls back to a full run when the
// previous repository describes a different event.
func TestIncrementalIdentityMismatch(t *testing.T) {
	cfg := baseIncrementalConfig()
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	next := cfg
	next.MaxFrames = 150 // different frame count → raw layers unusable
	full := mustRun(t, next)
	defer full.Repo.Close()

	p, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if len(res.ReusedStages) != 0 {
		t.Errorf("identity mismatch must not reuse stages, got %v", res.ReusedStages)
	}
	assertRunsEqual(t, captureResult(t, full), captureResult(t, res), "identity-mismatch")
}

// TestIncrementalDefaultRunIsOracleClean double-checks the flag
// boundary: a run without Incremental writes no manifest or lookat
// records — the byte-identity contract with the oracle depends on it.
func TestIncrementalDefaultRunIsOracleClean(t *testing.T) {
	cfg := baseIncrementalConfig()
	cfg.Incremental = false
	res := mustRun(t, cfg)
	defer res.Repo.Close()
	for _, q := range []string{
		"label = 'run-manifest'", "label = 'stage-manifest'", "label = 'lookat'",
	} {
		recs, err := res.Repo.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("default run wrote %d %s records", len(recs), q)
		}
	}
}

// TestIncrementalPixelClassifierStaleFallsBack: a stale pixel
// extraction stage cannot re-run without video, so the run falls back
// to full extraction — and still produces a full-run-identical result.
// fuse-emotions is covered too: it is replayable in geometric mode
// only, since its pixel upstream (classify) needs rendered frames.
func TestIncrementalPixelClassifierStaleFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	cfg := Config{
		Scenario:     scene.PrototypeScenario(),
		Mode:         PixelVision,
		Gaze:         gaze.EstimatorOptions{Seed: 4},
		Classifier:   engineTestClassifier(t),
		MaxFrames:    18,
		DetectEvery:  3,
		PixelCameras: 1,
		Incremental:  true,
	}
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StageClassify, StageFuseEmotions} {
		res, err := p.RunIncremental(prev.Repo, stage)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ReusedStages) != 0 {
			t.Errorf("stale %s: pixel fallback must not reuse stages, got %v", stage, res.ReusedStages)
		}
		assertRunsEqual(t, captureResult(t, prev), captureResult(t, res), "pixel-fallback-"+stage)
		res.Repo.Close()
	}
}

// TestIncrementalSameRepoDirRejected: the output repository cannot be
// the directory prev still holds the exclusive lease on — reject with
// a descriptive error instead of a misleading cross-"process" lock
// failure.
func TestIncrementalSameRepoDirRejected(t *testing.T) {
	cfg := baseIncrementalConfig()
	cfg.RepoDir = t.TempDir()
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIncremental(prev.Repo); !errors.Is(err, ErrBadConfig) {
		t.Errorf("same RepoDir: err = %v, want ErrBadConfig", err)
	}
}

// TestIncrementalIdentityIgnoresUnusedPixelCameras: PixelCameras is
// meaningless in geometric mode (and 0 ≡ 1 in pixel mode): it must
// not defeat replay by perturbing the run identity.
func TestIncrementalIdentityIgnoresUnusedPixelCameras(t *testing.T) {
	cfg := baseIncrementalConfig() // PixelCameras: 0
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	next := cfg
	next.PixelCameras = 2 // ignored by geometric extraction
	p, err := New(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if len(res.ReusedStages) == 0 {
		t.Errorf("unused PixelCameras knob forced a full run (stale=%v)", res.StaleStages)
	}
	assertRunsEqual(t, captureResult(t, prev), captureResult(t, res), "pixelcams-ignored")
}

// TestIncrementalLatestRunWithoutManifest: when the newest run
// appended into a directory kept no manifest, the older run's
// manifest must not be paired with the newer run's raw layers —
// that's ErrNoManifest, not a silent replay of empty matrices.
func TestIncrementalLatestRunWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := baseIncrementalConfig()
	cfg.RepoDir = dir
	resA := mustRun(t, cfg)
	if err := resA.Repo.Close(); err != nil {
		t.Fatal(err)
	}
	plain := cfg
	plain.Incremental = false
	prev := mustRun(t, plain)
	defer prev.Repo.Close()

	p, err := New(baseIncrementalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIncremental(prev.Repo); !errors.Is(err, ErrNoManifest) {
		t.Errorf("latest run has no manifest: err = %v, want ErrNoManifest", err)
	}
}

// TestIncrementalCustomReplayableStage: a registered Replayable
// prepare stage re-runs inside the replay loop; a stage whose Needs
// reach a non-replayable provider pulls the run back to full
// extraction.
func TestIncrementalCustomReplayableStage(t *testing.T) {
	reg := newRegistry()
	var runCalls int
	if err := reg.register("jitter", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "jitter", Version: 1, Phase: PhasePrepare,
			Provides:   []ArtifactKey{"jitter"},
			Replayable: true,
			RunCam: func(*runEnv, *Artifacts) error {
				runCalls++
				return nil
			},
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg := baseIncrementalConfig()
	cfg.registry = reg
	cfg.Stages = []string{"jitter"}
	cfg.Workers = 1
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runCalls = 0
	res, err := p.RunIncremental(prev.Repo, "jitter")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if runCalls != 200 {
		t.Errorf("stale custom stage ran %d times, want one per frame (200)", runCalls)
	}
	assertRunsEqual(t, captureResult(t, prev), captureResult(t, res), "custom-replayable")
}

// TestIncrementalCustomStageNeedingPixelsFallsBack: a Replayable
// claim does not extend to a stage whose inputs come from the render
// chain — the upstream closure detects it and falls back.
func TestIncrementalCustomStageNeedingPixelsFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	reg := newRegistry()
	if err := reg.register("gray-peek", func(*stageBuild) (*Stage, error) {
		return &Stage{
			Name: "gray-peek", Version: 1, Phase: PhasePrepare,
			Needs:      []ArtifactKey{ArtGray},
			Provides:   []ArtifactKey{"gray-peek"},
			Replayable: true, // a lie: it reads rendered pixels
			RunCam: func(_ *runEnv, a *Artifacts) error {
				if a.Gray == nil {
					return errors.New("gray plane missing")
				}
				return nil
			},
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Scenario:     scene.PrototypeScenario(),
		Mode:         PixelVision,
		Gaze:         gaze.EstimatorOptions{Seed: 4},
		Classifier:   engineTestClassifier(t),
		MaxFrames:    12,
		DetectEvery:  3,
		PixelCameras: 1,
		Incremental:  true,
		registry:     reg,
		Stages:       []string{"gray-peek"},
	}
	prev := mustRun(t, cfg)
	defer prev.Repo.Close()

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo, "gray-peek")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if len(res.ReusedStages) != 0 {
		t.Errorf("render-dependent stage must force a full run, reused %v", res.ReusedStages)
	}
	assertRunsEqual(t, captureResult(t, prev), captureResult(t, res), "gray-peek-fallback")
}

// TestIncrementalReusedRepoDirTakesLatestRun: an append-only
// repository directory can accumulate several runs; the replay must
// reconstruct the latest run's raw layers only, not the union — a
// phantom edge from an older gaze configuration would silently skew
// every derived record.
func TestIncrementalReusedRepoDirTakesLatestRun(t *testing.T) {
	dir := t.TempDir()
	mkCfg := func(seed int64) Config {
		return Config{
			Scenario:    scene.PrototypeScenario(),
			Mode:        GeometricVision,
			Gaze:        gaze.EstimatorOptions{Seed: seed},
			MaxFrames:   150,
			Incremental: true,
		}
	}
	// Run A (seed 1) then run B (seed 2) appended into the same dir.
	cfgA := mkCfg(1)
	cfgA.RepoDir = dir
	resA := mustRun(t, cfgA)
	if err := resA.Repo.Close(); err != nil {
		t.Fatal(err)
	}
	cfgB := mkCfg(2)
	cfgB.RepoDir = dir
	prev := mustRun(t, cfgB)
	defer prev.Repo.Close()

	// Full in-memory reference run of B's configuration.
	full := mustRun(t, mkCfg(2))
	defer full.Repo.Close()

	p, err := New(mkCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIncremental(prev.Repo)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if len(res.StaleStages) != 0 {
		t.Errorf("nothing stale vs the latest manifest, got %v", res.StaleStages)
	}
	assertRunsEqual(t, captureResult(t, full), captureResult(t, res), "reused-dir")
}

// TestStageConfigHashGolden pins what a run manifest records for the
// default geometric and pixel configurations: the run identity and the
// config hash of every built-in stage. A change here re-keys every
// existing repository, so RunIncremental would re-run stages that did
// not change.
func TestStageConfigHashGolden(t *testing.T) {
	const scenario = "scenario=f59ca1a0da62c4a2"
	shared := map[string]string{
		StageFuseEmotions: "cbf29ce484222325",
		StageGazeAnalysis: "bb48d094ecdf40bf",
		StageMultilayer:   "fa5a7449b6c803e4",
		StageObservations: "0a2b0b6152207fb6",
		StageDerived:      "cbf29ce484222325",
		StageManifest:     "cbf29ce484222325",
		StageSummarize:    "6928726d2a21ca08",
		StageAttention:    "07f89407b4ba0c0a",
		StageDiningPhase:  "db9a0b9be1aa2c05",
		StageLiveSummary:  "a4910e64e5984eda",
	}
	for _, c := range []struct {
		mode     VisionMode
		identity string
		stages   map[string]string
	}{
		{GeometricVision, "mode=geometric frames=610 cams=4 lanes=1 " + scenario, map[string]string{
			StageGeoGaze:     "93690996ac75fcc3",
			StageGeoEmotion:  "fc1070d3010c44d7",
			StageCollectGaze: "cbf29ce484222325",
		}},
		{PixelVision, "mode=pixel frames=610 cams=4 lanes=1 " + scenario, map[string]string{
			StageRender:   "129f20c182b2def3",
			StageDetect:   "058dd1bc1ad4d398",
			StageTrack:    "058dd1bc1ad4d398",
			StageClassify: "f19136cdfaa64db1",
			StagePxGaze:   "93690996ac75fcc3",
		}},
	} {
		p, err := New(Config{
			Scenario: scene.PrototypeScenario(), Mode: c.mode, Incremental: true,
			Stages: []string{StageAttention, StageDiningPhase, StageLiveSummary},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := p.scenarioFrames()
		g, b, err := p.buildStages(true, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.runIdentity(n, b.nCams); got != c.identity {
			t.Errorf("%v: run identity %q, want %q", c.mode, got, c.identity)
		}
		if len(g.stages) != len(c.stages)+len(shared) {
			t.Errorf("%v: %d stages, want %d", c.mode, len(g.stages), len(c.stages)+len(shared))
		}
		for _, st := range g.stages {
			want, ok := c.stages[st.Name]
			if !ok {
				want = shared[st.Name]
			}
			if got := configHash(st.Config); got != want {
				t.Errorf("%v: stage %s config %q hashes to %s, want %s", c.mode, st.Name, st.Config, got, want)
			}
		}
	}
}
