// Package core orchestrates the DiEvent pipeline of paper Fig. 1: video
// acquisition → video composition analysis → feature extraction →
// multilayer analysis → metadata repository, producing the summary
// digest on top.
//
// Two vision modes are supported. PixelVision runs the complete
// computer-vision path on rendered frames (face detection, tracking,
// recognition, LBP+NN emotion classification); it is the full
// reproduction of the paper's feature-extraction stage and is priced
// accordingly. GeometricVision replaces the pixel stages with the
// calibrated noisy estimators (the documented OpenFace substitution,
// DESIGN.md §1) and is fast enough for full-length multi-camera events
// and parameter sweeps. Both modes share the gaze math, multilayer
// analysis, metadata store and summariser.
//
// The pipeline itself is a fixed list of stages (DESIGN.md §7): both
// visions, the frame-serial analysis chain and the end-of-run passes
// are named Stages over typed per-(camera, frame) and per-frame
// artifact stores. Each phase's stages run in list order on a
// concurrent engine (DESIGN.md §2): a worker pool executes the
// stateless prepare stages in any order, per-camera ordered lanes
// advance the stateful stages, and a merger reassembles frames in index
// order for the frame-serial stages. Config.Workers sets the pool size
// (default GOMAXPROCS; 1 selects the plain sequential loop); every
// worker count produces byte-identical results, and the monolithic
// oracle retained in the package's tests (oracle_test.go) proves the
// stage list equivalent to the pre-refactor pipeline.
//
// Config.Stages adds the optional built-in analyzers to the list
// (attention-span, dining-phase, live-summary), and Config.Incremental
// persists a run manifest through the metadata repository so
// RunIncremental can re-run only stale stages — re-deriving one layer
// without re-decoding video (manifest.go). Run, RunStream and RunIncremental are one driver
// (Pipeline.run): they differ only in the options and the frame source
// they hand it.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/camera"
	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/img"
	"repro/internal/layers"
	"repro/internal/metadata"
	"repro/internal/scene"
	"repro/internal/summarize"
)

// VisionMode selects the feature-extraction implementation.
type VisionMode uint8

// Vision modes.
const (
	// GeometricVision uses the noisy geometric estimators.
	GeometricVision VisionMode = iota
	// PixelVision runs the full pixel pipeline on rendered frames.
	PixelVision

	numVisionModes
)

// String names the mode.
func (m VisionMode) String() string {
	switch m {
	case GeometricVision:
		return "geometric"
	case PixelVision:
		return "pixel"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Config assembles a pipeline run.
type Config struct {
	// Scenario is the scripted event to analyse (required). It is
	// watched by the prototype four-corner rig of §III, which requires
	// positive scenario room dimensions.
	Scenario scene.Scenario
	// Mode selects the vision path.
	Mode VisionMode
	// Gaze tunes the gaze estimator.
	Gaze gaze.EstimatorOptions
	// Classifier recognises emotions in PixelVision; nil trains a small
	// classifier on synthetic faces at startup.
	Classifier *emotion.Classifier
	// EmotionNoise is the probability a GeometricVision emotion
	// observation is misread (default 0.05), modelling classifier error.
	EmotionNoise float64
	// RepoDir persists the metadata repository; empty keeps it in
	// memory.
	RepoDir string
	// RepoOptions tune the persistent repository's storage engine
	// (segment size, sync policy); ignored when RepoDir is empty.
	RepoOptions []metadata.Option
	// DetectEvery is the PixelVision detector cadence in frames;
	// tracking bridges the gaps (default 3).
	DetectEvery int
	// PixelCameras is how many rig cameras the pixel path analyses
	// (default 1, capped at the rig size). More cameras cost linearly
	// but cover faces the primary camera sees poorly.
	PixelCameras int
	// MaxFrames truncates the event (0 = all frames) — lets callers
	// bound PixelVision costs.
	MaxFrames int
	// Workers is the extraction parallelism: the number of goroutines
	// rendering and detecting concurrently (default GOMAXPROCS; 1
	// forces the plain sequential loop). Results are byte-identical for
	// every worker count — the engine reassembles frames in order.
	Workers int
	// Stages names the optional built-in analyzer stages to add to the
	// graph: StageAttention, StageDiningPhase and StageLiveSummary, each
	// at most once. New rejects any other name with ErrBadConfig.
	Stages []string
	// Incremental persists the run manifest and the raw look-at layer
	// through the repository, enabling RunIncremental re-runs against
	// this run's output. Off by default: the extra records make the
	// log a superset of a plain run's.
	Incremental bool

	// rig replaces the prototype rig, and testStages holds factories
	// for stage names Stages may list besides the analyzers: test seams
	// (nil in every product run).
	rig        *camera.Rig
	testStages map[string]stageFactory
}

// StageTiming reports time spent in one pipeline stage. Serial stages
// (gaze-analysis, multilayer, summarize) report wall time. The metadata
// entry sums the wall time of every repository append, including the
// raw-record batches the appender goroutine writes while the frame loop
// goes on, so it overlaps the frame-phase entries and is not on the
// serial path. Under parallel extraction (Workers > 1) the
// feature-extraction entry and the per-stage extraction entries
// aggregate CPU time across workers and can exceed the run's wall time.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Result is everything a pipeline run produces.
type Result struct {
	// Context is the time-invariant layer derived from the scenario.
	Context layers.Context
	// Layers is the multilayer analysis output.
	Layers *layers.Result
	// Summary is the event digest.
	Summary *summarize.Summary
	// Attention is the attention-span analyzer's derived layer (nil
	// unless the "attention-span" stage was enabled).
	Attention *AttentionResult
	// Repo is the populated metadata repository. The caller owns Close.
	Repo *metadata.Repository
	// Timings lists per-stage wall time.
	Timings []StageTiming
	// FramesAnalyzed is the number of frames pushed through analysis.
	FramesAnalyzed int
	// StaleStages and ReusedStages report an incremental run's
	// manifest diff: which stages re-ran and which extraction stages
	// were replayed from the previous repository. Empty on full runs.
	StaleStages, ReusedStages []string
	// Phases is the dining-phase stage's decoded activity timeline (nil
	// unless the "dining-phase" stage was enabled on a finite run).
	Phases []PhaseSpan
	// Interrupted reports that a streaming run's context was cancelled
	// mid-stream: the result covers the FramesAnalyzed frames consumed
	// before cancellation, finalized normally.
	Interrupted bool
}

// ErrBadConfig reports an unusable configuration.
var ErrBadConfig = errors.New("core: bad config")

// Pipeline is a configured, reusable DiEvent pipeline.
type Pipeline struct {
	cfg        Config
	sim        *scene.Simulator
	rig        *camera.Rig
	stageNames []string
}

// New validates the configuration and prepares a pipeline.
func New(cfg Config) (*Pipeline, error) {
	sim, err := scene.NewSimulator(cfg.Scenario)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Mode >= numVisionModes {
		return nil, fmt.Errorf("core: unknown vision mode %d (have %v, %v): %w",
			cfg.Mode, GeometricVision, PixelVision, ErrBadConfig)
	}
	rig := cfg.rig
	if rig == nil {
		if cfg.Scenario.RoomW <= 0 || cfg.Scenario.RoomD <= 0 {
			return nil, fmt.Errorf("core: the prototype rig requires positive scenario room dimensions (got %v x %v): %w",
				cfg.Scenario.RoomW, cfg.Scenario.RoomD, ErrBadConfig)
		}
		rig, err = camera.PrototypeRig(cfg.Scenario.RoomW, cfg.Scenario.RoomD)
		if err != nil {
			return nil, fmt.Errorf("core: default rig: %w", err)
		}
	}
	if cfg.EmotionNoise < 0 || cfg.EmotionNoise >= 1 {
		return nil, fmt.Errorf("core: emotion noise %v outside [0,1): %w", cfg.EmotionNoise, ErrBadConfig)
	}
	if cfg.DetectEvery == 0 {
		cfg.DetectEvery = 3
	}
	if cfg.DetectEvery < 0 {
		return nil, fmt.Errorf("core: detect cadence %d must be positive: %w", cfg.DetectEvery, ErrBadConfig)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: worker count %d must be ≥ 0 (0 = GOMAXPROCS): %w", cfg.Workers, ErrBadConfig)
	}
	if cfg.MaxFrames < 0 {
		return nil, fmt.Errorf("core: max frames %d must be ≥ 0 (0 = all frames): %w", cfg.MaxFrames, ErrBadConfig)
	}
	if cfg.PixelCameras < 0 {
		return nil, fmt.Errorf("core: pixel cameras %d must be ≥ 0 (0 = primary only): %w", cfg.PixelCameras, ErrBadConfig)
	}
	if cfg.Mode == PixelVision {
		for c := 0; c < pixelCamCount(cfg, rig); c++ {
			if in := rig.Cameras[c].In; in.W <= 0 || in.H <= 0 {
				return nil, fmt.Errorf("core: pixel vision camera %q has no intrinsics (%dx%d sensor); the renderer needs a calibrated camera: %w",
					rig.Cameras[c].Name, in.W, in.H, ErrBadConfig)
			}
		}
	}
	names, err := resolveStageNames(cfg)
	if err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg, sim: sim, rig: rig, stageNames: names}, nil
}

// pixelCamCount is the number of rig cameras the pixel path analyses.
func pixelCamCount(cfg Config, rig *camera.Rig) int {
	n := cfg.PixelCameras
	if n <= 0 {
		n = 1
	}
	if n > len(rig.Cameras) {
		n = len(rig.Cameras)
	}
	return n
}

// resolveStageNames assembles the run's stage list: the mode's
// extraction set, the frame-serial analysis chain, the end-of-run
// stages, then the requested analyzers. Each phase runs its stages in
// this order.
func resolveStageNames(cfg Config) ([]string, error) {
	var names []string
	switch cfg.Mode {
	case GeometricVision:
		names = append(names, StageGeoGaze, StageGeoEmotion, StageCollectGaze, StageFuseEmotions)
	case PixelVision:
		names = append(names, StageRender, StageDetect, StageTrack, StageClassify, StageFuseEmotions, StagePxGaze)
	}
	names = append(names, StageGazeAnalysis, StageMultilayer, StageObservations, StageDerived)
	if cfg.Incremental {
		names = append(names, StageManifest)
	}
	names = append(names, StageSummarize)
	// Analyzers go last in request order: they are frame-phase stages,
	// so they run after the analysis chain, and the end-of-run stages
	// still run after every frame stage.
	for _, extra := range cfg.Stages {
		if !slices.Contains(analyzerStages, extra) && cfg.testStages[extra] == nil {
			return nil, fmt.Errorf("core: stage %q in Config.Stages is not an optional analyzer (have %v): %w", extra, analyzerStages, ErrBadConfig)
		}
		if slices.Contains(names, extra) {
			return nil, fmt.Errorf("core: stage %q requested twice in Config.Stages: %w", extra, ErrBadConfig)
		}
		names = append(names, extra)
	}
	return names, nil
}

// StageNames lists the run's stages in list order.
func (p *Pipeline) StageNames() []string {
	return append([]string(nil), p.stageNames...)
}

// Context builds the time-invariant layer from the scenario.
func (p *Pipeline) Context() layers.Context {
	return contextOf(p.sim, p.cfg)
}

// contextOf derives the time-invariant layer.
func contextOf(sim *scene.Simulator, cfg Config) layers.Context {
	ctx := layers.Context{
		Location: "meeting room",
		Occasion: cfg.Scenario.Name,
	}
	for _, ps := range sim.Persons() {
		ctx.Participants = append(ctx.Participants, layers.Participant{
			ID: ps.ID, Name: ps.Name, Color: ps.Color,
		})
	}
	return ctx
}

// metadataBatch is how many raw records buffer before one repository
// append pays the lock and log flush.
const metadataBatch = 256

// runEnv is one run's shared mutable state, threaded through every
// stage callback.
type runEnv struct {
	graph     *stageGraph
	res       *Result
	repo      *metadata.Repository
	timer     *stageTimer
	numFrames int
	identity  string
	// opts is the run's streaming drive (the zero value on plain and
	// incremental runs).
	opts StreamOptions
	// pending is the raw-layer record batch queue (see queue).
	pending []metadata.Record
	// spare is the other batch buffer: with the appender while a batch
	// is in flight, free otherwise.
	spare []metadata.Record
	// appended carries the in-flight batch's append error back from the
	// appender goroutine; inflight says a result is still owed.
	appended chan error
	inflight bool
	// framesDone counts frames fully through the frame phase, so an
	// interrupted stream reports exactly what it consumed.
	framesDone int
}

// queue buffers a raw-layer record for the next batched append (paid
// once per metadataBatch records). End-of-run stages writing derived
// layers append through the repository directly instead.
func (env *runEnv) queue(recs ...metadata.Record) {
	if env.opts.discardRaw {
		return
	}
	env.pending = append(env.pending, recs...)
}

// queueDerived buffers a live derived record from a RunEmit tick. Like
// queue, but it keeps the record on a discardRaw stream.
func (env *runEnv) queueDerived(recs ...metadata.Record) {
	env.pending = append(env.pending, recs...)
}

// handoff sends the full pending batch to an appender goroutine and
// swaps in the spare buffer, so the store's append overlaps the next
// frames' serial stages. At most one batch is in flight, so batches land
// in queue order; an earlier batch's append error surfaces here, and
// this batch is then not sent.
func (env *runEnv) handoff() error {
	if err := env.wait(); err != nil {
		return err
	}
	batch := env.pending
	env.pending, env.spare = env.spare[:0], batch
	env.inflight = true
	go func() {
		t0 := time.Now()
		err := env.repo.AppendBatch(batch)
		env.timer.add("metadata", time.Since(t0))
		env.appended <- err
	}()
	return nil
}

// wait blocks until the in-flight batch, if any, has been appended, and
// returns its append error.
func (env *runEnv) wait() error {
	if !env.inflight {
		return nil
	}
	env.inflight = false
	return flushErr(<-env.appended)
}

// flush appends the pending raw-record batch synchronously, under the
// metadata timer, after the in-flight batch has landed.
func (env *runEnv) flush() error {
	if err := env.wait(); err != nil {
		return err
	}
	env.timer.start("metadata")
	defer env.timer.stop("metadata")
	if len(env.pending) == 0 {
		return nil
	}
	err := env.repo.AppendBatch(env.pending)
	env.pending = env.pending[:0]
	return flushErr(err)
}

// flushErr wraps a raw-batch append error. The batch spans records from
// up to metadataBatch earlier frames, so it blames no single frame.
func flushErr(err error) error {
	if err != nil {
		return fmt.Errorf("core: flushing observations: %w", err)
	}
	return nil
}

// scenarioFrames is one pass over the scenario, capped by MaxFrames.
func (p *Pipeline) scenarioFrames() int {
	n := p.sim.NumFrames()
	if p.cfg.MaxFrames > 0 && p.cfg.MaxFrames < n {
		n = p.cfg.MaxFrames
	}
	return n
}

// buildStages resolves and builds the stage graph of a numFrames-frame
// run. The incremental flag forces manifest-keeping (RunIncremental
// implies it).
func (p *Pipeline) buildStages(incremental bool, numFrames int) (*stageGraph, *stageBuild, error) {
	cfg := p.cfg
	names := p.stageNames
	if incremental && !cfg.Incremental {
		cfg.Incremental = true
		var err error
		if names, err = resolveStageNames(cfg); err != nil {
			return nil, nil, err
		}
	}
	ctx := p.Context()
	ids := make([]int, 0, len(ctx.Participants))
	for _, pp := range ctx.Participants {
		ids = append(ids, pp.ID)
	}
	nCams := 1
	if cfg.Mode == PixelVision {
		nCams = pixelCamCount(cfg, p.rig)
	}
	b := &stageBuild{
		cfg: cfg, sim: p.sim, rig: p.rig,
		ids: ids, nCams: nCams, numFrames: numFrames,
	}
	g, err := buildGraph(names, b)
	if err != nil {
		return nil, nil, err
	}
	return g, b, nil
}

// Run executes the pipeline over one pass of the scenario.
func (p *Pipeline) Run() (*Result, error) {
	return p.RunStream(StreamOptions{})
}

// run drives one execution of a built stage graph — Run, RunStream and
// RunIncremental all end up here: open the repository, build the run
// environment, loop the frames through the sink, finalize. rd is the
// raw layer an incremental run replays instead of extracting (graph is
// then already narrowed to what re-runs); nil extracts in full.
func (p *Pipeline) run(graph *stageGraph, b *stageBuild, opts StreamOptions, rd *replayData) (*Result, error) {
	repo := opts.Repo
	if repo == nil {
		var err error
		if repo, err = openRepo(b.cfg); err != nil {
			return nil, err
		}
	}
	// On any error return the repository must be closed: callers never
	// see it, and a persistent repository holds the directory's
	// exclusive lease until closed — leaking it would wedge every
	// retry on the same RepoDir with ErrLocked for the process
	// lifetime. (Caller-owned streaming repositories stay the caller's:
	// followers may still be tailing them.)
	finished := false
	defer func() {
		if !finished && opts.Repo == nil {
			repo.Close()
		}
	}()

	env := p.newEnv(graph, b, repo, opts)
	if rd != nil {
		env.res.StaleStages = rd.stale
		env.res.ReusedStages = rd.reused
	}
	// Context records first.
	if err := writeContext(repo, env.res.Context); err != nil {
		return nil, err
	}
	if err := p.frameLoop(env, b, rd); err != nil {
		return nil, err
	}
	if err := env.finalize(); err != nil {
		return nil, err
	}
	finished = true
	return env.res, nil
}

// openRepo opens the run's own repository: persistent under
// Config.RepoDir, in memory without one.
func openRepo(cfg Config) (*metadata.Repository, error) {
	if cfg.RepoDir == "" {
		return metadata.NewMem(), nil
	}
	repo, err := metadata.Open(cfg.RepoDir, cfg.RepoOptions...)
	if err != nil {
		return nil, fmt.Errorf("core: opening repository: %w", err)
	}
	return repo, nil
}

// newEnv builds the run's shared state around an open repository.
func (p *Pipeline) newEnv(graph *stageGraph, b *stageBuild, repo *metadata.Repository, opts StreamOptions) *runEnv {
	env := &runEnv{
		graph: graph, repo: repo, timer: newStageTimer(), opts: opts,
		res:       &Result{Context: p.Context(), Repo: repo},
		numFrames: b.numFrames, identity: p.runIdentity(b.numFrames, b.nCams),
		pending:  make([]metadata.Record, 0, metadataBatch),
		spare:    make([]metadata.Record, 0, metadataBatch),
		appended: make(chan error, 1),
	}
	// Pre-register the timing entries in graph order so Timings stays
	// deterministic even when workers race to report first.
	if b.numFrames > 0 {
		env.timer.add("feature-extraction", 0)
		for _, ph := range []StagePhase{PhasePrepare, PhaseOrdered, PhaseMerge, PhaseFrame} {
			for _, st := range graph.byPhase[ph] {
				env.timer.add(st.Name, 0)
			}
		}
		env.timer.add("metadata", 0)
	}
	return env
}

// frameLoop extracts every frame and feeds it, in index order, through
// the sink: on the engine for full extraction, from the replay store
// for an incremental run.
func (p *Pipeline) frameLoop(env *runEnv, b *stageBuild, rd *replayData) error {
	workers := b.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var vision frameVision
	if rd == nil {
		vision = newGraphVision(env.graph, env, b.nCams)
	} else {
		vision = &replayVision{stale: newGraphVision(env.graph, env, 1), rd: rd}
	}
	ctx := env.opts.Ctx
	frameAt := cycleFrames(p.sim, p.scenarioFrames())
	if err := p.runFrames(ctx, frameAt, b.numFrames, workers, vision, env.timer, env.sink); err != nil {
		// A cancelled streaming context ends the stream gracefully: the
		// frames consumed so far are finalized into a partial result
		// instead of being thrown away.
		if ctx == nil || ctx.Err() == nil ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			env.wait() // no append outlives the run; err is the one to report
			return err
		}
		env.res.Interrupted = true
	}
	// Flush the raw-layer tail before any derived records are written,
	// keeping the record log's layer order identical to the monolith's.
	return env.flush()
}

// sink is the run's frameSink: the one place a merged frame meets the
// frame-phase stages, their Emit ticks, the batch flush and the
// progress bookkeeping, for full, streamed and incremental runs alike.
func (env *runEnv) sink(i int, _ scene.FrameState, out any) error {
	fa := out.(*FrameArtifacts)
	stages := env.graph.byPhase[PhaseFrame]
	for _, st := range stages {
		env.timer.start(st.Name)
		err := st.RunFrame(env, fa)
		env.timer.stop(st.Name)
		if err != nil {
			return fmt.Errorf("core: frame %d: stage %s: %w", i, st.Name, err)
		}
	}
	// RunEmit fires only on live/bounded streams, so plain finite runs
	// (streamed or not) stay byte-identical to the end-of-run oracle.
	if env.opts.Live || env.opts.Bounded {
		for _, st := range stages {
			if st.RunEmit == nil || (i+1)%st.Emit != 0 {
				continue
			}
			env.timer.start(st.Name)
			err := st.RunEmit(env, fa)
			env.timer.stop(st.Name)
			if err != nil {
				return fmt.Errorf("core: frame %d: stage %s emit: %w", i, st.Name, err)
			}
		}
	}
	// A cadence flush is synchronous, so Monitor(i) on a cadence frame
	// sees every record of frames ≤ i; a full batch goes to the appender.
	var err error
	every, n := env.opts.FlushEvery, len(env.pending)
	switch {
	case n > 0 && every > 0 && (i+1)%every == 0:
		err = env.flush()
	case n >= metadataBatch:
		err = env.handoff()
	}
	if err != nil {
		return err
	}
	env.framesDone = i + 1
	if env.opts.Monitor != nil {
		env.opts.Monitor(i)
	}
	return nil
}

// finalize runs the frame-stage finalizers (multilayer finalize,
// analyzer summaries), then the end-of-run stages, in graph order, over
// the frames the loop consumed, and makes the repository durable.
func (env *runEnv) finalize() error {
	res, timer := env.res, env.timer
	res.FramesAnalyzed = env.framesDone
	for _, st := range env.graph.byPhase[PhaseFrame] {
		if st.RunFinal == nil {
			continue
		}
		timer.start(st.Name)
		err := st.RunFinal(env)
		timer.stop(st.Name)
		if err != nil {
			return fmt.Errorf("core: stage %s: %w", st.Name, err)
		}
	}
	for _, st := range env.graph.byPhase[PhaseFinal] {
		name := st.Name
		if name == StageDerived || name == StageManifest {
			name = "metadata"
		}
		timer.start(name)
		err := st.RunFinal(env)
		timer.stop(name)
		if err != nil {
			return fmt.Errorf("core: stage %s: %w", st.Name, err)
		}
	}
	timer.start("metadata")
	if err := env.repo.Flush(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	timer.stop("metadata")

	res.Timings = timer.report()
	return nil
}

// writeContext stores the time-invariant layer.
func writeContext(repo *metadata.Repository, ctx layers.Context) error {
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

// ecEventRecord is the eye-contact event's record schema, shared by the
// live (RunEmit) and end-of-run emission paths.
func ecEventRecord(e layers.ECEvent) metadata.Record {
	return metadata.Record{
		Kind: metadata.KindEvent, Frame: e.Start, FrameEnd: e.End,
		Time: e.StartTime, Person: e.A, Other: e.B,
		Label: "eye-contact", Value: float64(e.Frames()),
	}
}

// alertRecord is the alert's record schema, shared the same way.
func alertRecord(a layers.Alert) metadata.Record {
	return metadata.Record{
		Kind: metadata.KindEvent, Frame: a.Frame, FrameEnd: a.Frame + 1,
		Time: a.Time, Person: a.Person, Other: a.Other,
		Label: "alert-" + a.Kind.String(),
		Tags:  map[string]string{"detail": a.Detail},
	}
}

// writeDerived stores events, alerts and summary counts.
func writeDerived(repo *metadata.Repository, res *Result) error {
	var recs []metadata.Record
	// Fresh* excludes events and alerts already drained live by the
	// multilayer stage's rolling pass, so each surfaces exactly once.
	for _, e := range res.Layers.FreshEvents() {
		recs = append(recs, ecEventRecord(e))
	}
	for _, a := range res.Layers.FreshAlerts() {
		recs = append(recs, alertRecord(a))
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
		return fmt.Errorf("writing derived records: %w", err)
	}
	return nil
}

// trainDefaultClassifier fits a small LBP+NN model on synthetic faces.
func trainDefaultClassifier() (*emotion.Classifier, error) {
	clf, err := emotion.NewClassifier(48, 1)
	if err != nil {
		return nil, fmt.Errorf("core: building classifier: %w", err)
	}
	ds := emotion.GenerateDataset(30, 7)
	if _, err := clf.Train(ds, emotion.TrainOptions{
		Epochs: 50, Seed: 8, LearningRate: 0.01,
	}); err != nil {
		return nil, fmt.Errorf("core: training classifier: %w", err)
	}
	return clf, nil
}

// confuse returns a plausible misclassification of l.
func confuse(l emotion.Label, r *tinyRand) emotion.Label {
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

// tinyRand is the deterministic emotion-noise stream.
type tinyRand struct{ s uint64 }

func emoRand(seed int64, frame, person int) *tinyRand {
	return &tinyRand{s: uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(frame)*0xBF58476D1CE4E5B9 ^ uint64(person)*0x94D049BB133111EB}
}

func (t *tinyRand) u() uint64 {
	t.s += 0x9E3779B97F4A7C15
	z := t.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *tinyRand) f() float64 { return float64(t.u()>>11) / (1 << 53) }

// clampBox keeps a tracker box inside the frame.
func clampBox(b img.Rect, g *img.Gray) img.Rect {
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

// --- stage timer ---

// stageTimer accumulates per-stage durations. Safe for concurrent use:
// engine workers add extraction time from many goroutines while the
// merger times the downstream stages. Under parallel extraction the
// "feature-extraction" entry is therefore aggregate CPU time across
// workers, which can exceed wall time.
type stageTimer struct {
	mu      sync.Mutex
	order   []string
	total   map[string]time.Duration
	started map[string]time.Time
}

func newStageTimer() *stageTimer {
	return &stageTimer{
		total:   make(map[string]time.Duration),
		started: make(map[string]time.Time),
	}
}

// touch registers the stage in report order. Caller holds mu.
func (t *stageTimer) touch(name string) {
	if _, ok := t.total[name]; !ok {
		t.order = append(t.order, name)
		t.total[name] = 0
	}
}

func (t *stageTimer) start(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(name)
	t.started[name] = time.Now()
}

func (t *stageTimer) stop(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.started[name]; ok {
		t.total[name] += time.Since(s)
		delete(t.started, name)
	}
}

// add accumulates an externally measured duration — how concurrent
// workers report time without holding a start/stop pair open.
func (t *stageTimer) add(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(name)
	t.total[name] += d
}

func (t *stageTimer) report() []StageTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageTiming, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, StageTiming{Name: n, Duration: t.total[n]})
	}
	return out
}
