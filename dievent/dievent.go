// Package dievent is the public API of the DiEvent framework — an
// automated analysis system for dining social events reproducing
// Qodseya, Washha & Sèdes, "DiEvent: Towards an Automated Framework for
// Analyzing Dining Events" (ICDEW 2018).
//
// The pipeline runs five sequenced stages (paper Fig. 1): video
// acquisition over a calibrated multi-camera rig, video composition
// analysis, feature extraction (face detection/tracking/recognition,
// LBP+NN emotion recognition, head pose and gaze), multilayer analysis
// (eye-contact detection via frame transforms and ray–sphere
// intersection, overall-emotion estimation, alerting), and a queryable
// metadata repository.
//
// Quick start:
//
//	pipe, err := dievent.New(dievent.Config{
//	    Scenario: dievent.PrototypeScenario(),
//	})
//	if err != nil { ... }
//	res, err := pipe.Run()
//	if err != nil { ... }
//	defer res.Repo.Close()
//	fmt.Println(res.Summary.Digest)
//
// Queries run on a planned, parallel engine. QueryIter streams results
// through a cursor with limit, order and projection pushdown:
//
//	it, err := res.Repo.QueryIter("label = 'eye-contact' AND person = 1",
//	    dievent.QueryOpts{Limit: 10, Order: dievent.OrderFrame})
//	if err != nil { ... }
//	defer it.Close()
//	for {
//	    rec, ok := it.Next()
//	    if !ok { break }
//	    fmt.Println(rec)
//	}
//
// Query collects the full frame-ordered result set in one call, and
// Explain renders a query's plan without executing it.
//
// Persistent repositories (OpenRepository, Config.RepoDir) store
// records in a segmented append-only log — fixed-size sealed segments
// plus a checksummed manifest — recovered by replay on open and
// compacted in the background without blocking appends or queries
// (DESIGN.md §5). WithSegmentSize and WithSyncPolicy tune the engine;
// Repository.Stats and Repository.Compact expose maintenance.
//
// The pipeline itself is a fixed list of stages (DESIGN.md §7):
// extraction, analysis and derivation run as named stages over shared
// per-(camera, frame) artifacts. Add the optional built-in analyzers by
// name:
//
//	pipe, err := dievent.New(dievent.Config{
//	    Scenario: dievent.PrototypeScenario(),
//	    Stages:   []string{dievent.StageAttention}, // per-person gaze fixations
//	})
//
// Runs with Config.Incremental persist a manifest of
// every stage's version and config hash; Pipeline.RunIncremental then
// diffs a new configuration against a previous run's repository and
// re-runs only the stale stages, replaying fresh raw layers from the
// stored records — re-deriving one layer without re-decoding video:
//
//	prev, _ := pipe.Run()                    // Config.Incremental: true
//	tuned, _ := dievent.New(tunedCfg)        // e.g. retrained emotions
//	res, err := tuned.RunIncremental(prev.Repo)
//
// For multi-process deployments, cmd/dieventd serves many tenant
// repositories over HTTP — ingest, planned queries, live FOLLOW
// streams — with admission control, per-tenant quotas and graceful
// drain; repro/dievent/client is its retrying Go client (DESIGN.md
// §11).
//
// The types below are aliases into the implementation packages, so the
// whole framework is drivable from this single import; advanced users
// can reach the subsystem packages directly.
//
// Removed API. A TailCursor reads the repository's append-only record
// store at its own position, so a follower can no longer fall behind
// far enough to be dropped, and what served that case is gone: the
// tail overflow-policy interface, TailOpts' Buffer and Overflow fields,
// the lagging sentinel error (here and in repro/dievent/client), and
// dieventd's -backpressure flag. TailOpts itself remains, empty.
//
// The pipeline runs only its built-in stages, and every knob that no
// command, example or benchmark sets is gone, with the code only it
// reached (dievent/api.txt lists what remains):
//   - the stage-plugin API: StageRegistry, NewStageRegistry,
//     StageFactory, StageBuild (and its Config, Rig, Simulator, IDs,
//     Cameras and NumFrames methods), Stage, StageEnv, ArtifactKey,
//     Artifacts, FrameArtifacts, and Config.Registry;
//   - degraded-mode stage isolation: Config.Degraded,
//     Result.Quarantined and StageFailure (a stage panic fails the run);
//   - in-pipeline video parsing: Config.ParseVideo, Result.Parse, the
//     shot and shot-boundary records, and Summary.KeyFrames (cmd/repro
//     reproduces Fig. 3 directly);
//   - Config.Rig (the prototype rig of §III is the one rig a run
//     uses), Config.Render, Config.Layers and Config.Summarize (their
//     defaults are the values every run used);
//   - StreamOptions.DiscardRecords;
//   - EmotionTrainOptions' BatchSize (32), L2 (1e-4), Optimizer,
//     Momentum and OnEpoch: training is minibatch Adam;
//   - RenderOptions' LightDrift, LightPeriod, Background and TableTone;
//   - AnalysisResult's context fields Menu, Date, Temperature and
//     Relations, and the Role of a participant;
//   - in repro/dievent/client, QueryOpts.Timeout, QueryOpts.Order and
//     Config.MaxBackoff (5 s); the server keeps its timeout and order
//     query parameters.
//
// Methods of aliased types that no command, example or benchmark
// called are gone too: Repository.TimeHistogram, Rig.Camera,
// Rig.TimeAt, Rig.FrameAt, Scenario.Duration, Dataset.TrueEmotion,
// Dataset.Duration, LookAtSummary.RowSums and EmotionLabel.Valid.
// Config.Stages takes only the optional analyzers (StageAttention,
// StageDiningPhase, StageLiveSummary); New rejects any other stage name.
package dievent

import (
	"repro/internal/camera"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/layers"
	"repro/internal/metadata"
	"repro/internal/scene"
	"repro/internal/summarize"
	"repro/internal/video"
)

// Config assembles a pipeline run. See core.Config for field docs.
type Config = core.Config

// Pipeline is a configured DiEvent pipeline.
type Pipeline = core.Pipeline

// Result carries everything a run produces: the multilayer analysis,
// the digest, per-stage timings, and the populated metadata repository.
type Result = core.Result

// Vision modes.
const (
	// GeometricVision uses calibrated noisy estimators in place of the
	// pixel pipeline (fast; the documented OpenFace substitution).
	GeometricVision = core.GeometricVision
	// PixelVision runs the full pixel path: render, detect, track,
	// recognize, classify.
	PixelVision = core.PixelVision
)

// New validates a configuration and prepares a pipeline.
func New(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// Attention-span analyzer output (StageAttention).
type (
	// AttentionResult is the attention-span analyzer's derived layer.
	AttentionResult = core.AttentionResult
	// AttentionSpan is one contiguous gaze fixation.
	AttentionSpan = core.AttentionSpan
	// AttentionStat summarises one participant's gaze persistence.
	AttentionStat = core.AttentionStat
)

// StageAttention is the built-in per-person attention-span analyzer,
// enabled via Config.Stages.
const StageAttention = core.StageAttention

// Online stages (DESIGN.md §10), enabled via Config.Stages: the sliding
// window HMM dining-phase decoder and the rolling happiness/dominance
// digest. Both publish live- records mid-stream on Live streams.
const (
	StageDiningPhase = core.StageDiningPhase
	StageLiveSummary = core.StageLiveSummary
)

// Streaming execution (DESIGN.md §10). RunStream drives the pipeline as
// an online process over a finite or cycled-unbounded frame stream; Run
// is RunStream with the zero options. The engine retains no frame once
// its frame-phase stages have run.
//
//	repo := dievent.NewMemRepository()
//	go pipe.RunStream(dievent.StreamOptions{
//	    Repo: repo, Live: true, FlushEvery: 32,
//	    Frames: 100000, Cycle: true, Bounded: true,
//	})
//	cur, _ := dievent.Follow(repo, "label = 'live-phase' FOLLOW", dievent.TailOpts{})
//	for { rec, _ := cur.Next(ctx); ... }
type (
	// StreamOptions configures Pipeline.RunStream (live emission,
	// bounded memory, cycling, cancellation, a caller-owned repository).
	StreamOptions = core.StreamOptions
	// PhaseSpan is one contiguous decoded dining phase in Result.Phases.
	PhaseSpan = core.PhaseSpan
)

// ErrNoManifest reports that a repository holds no run manifest, so
// RunIncremental cannot diff against it (run with Config.Incremental
// to write one).
var ErrNoManifest = core.ErrNoManifest

// Scenario scripting.
type (
	// Scenario is a scripted dining event.
	Scenario = scene.Scenario
	// PersonSpec describes one participant.
	PersonSpec = scene.PersonSpec
	// Segment scripts behaviour from a start frame.
	Segment = scene.Segment
	// GazeTarget is a scripted gaze destination.
	GazeTarget = scene.GazeTarget
	// DinnerOptions parameterises generated restaurant dinners.
	DinnerOptions = scene.DinnerOptions
)

// PrototypeScenario returns the paper's §III prototype: four
// participants, four corner cameras, 610 frames at 25 fps, scripted so
// Figs. 7, 8 and 9 reproduce exactly.
func PrototypeScenario() Scenario { return scene.PrototypeScenario() }

// DinnerScenario generates a synthetic restaurant dinner with the five
// dining phases and emotion dynamics biased by opt.Enjoyment.
func DinnerScenario(opt DinnerOptions) (Scenario, error) { return scene.DinnerScenario(opt) }

// Gaze targets for custom scripts.
var (
	// AtPerson aims a participant's gaze at another participant.
	AtPerson = scene.AtPerson
	// AtTable aims the gaze at the participant's plate.
	AtTable = scene.AtTable
	// Away aims the gaze off-table (distraction).
	Away = scene.Away
)

// Camera rigs.
type Rig = camera.Rig

// PaperRig builds the two-camera acquisition platform of paper Fig. 2
// (2.5 m mounts, −15° pitch, 25 fps, 640×480).
func PaperRig(separation float64) (*Rig, error) { return camera.PaperRig(separation) }

// PrototypeRig builds the four-corner prototype rig of §III.
func PrototypeRig(roomW, roomD float64) (*Rig, error) { return camera.PrototypeRig(roomW, roomD) }

// Analysis outputs.
type (
	// AnalysisResult is the multilayer analysis output.
	AnalysisResult = layers.Result
	// ECEvent is a detected eye-contact episode.
	ECEvent = layers.ECEvent
	// Alert is an analysis alert (emotion change, EC start, negative
	// spike).
	Alert = layers.Alert
	// OverallEmotion is the per-frame Fig. 5 estimate.
	OverallEmotion = layers.OverallEmotion
	// Summary is the event digest.
	Summary = summarize.Summary
	// LookAtSummary is the accumulated Fig. 9 matrix.
	LookAtSummary = gaze.Summary
)

// Metadata repository.
type (
	// Repository is the embedded metadata store.
	Repository = metadata.Repository
	// Record is one unit of stored metadata.
	Record = metadata.Record
	// QueryOpts tunes planned query execution (limit, order, projection).
	QueryOpts = metadata.QueryOpts
	// QueryIter streams planned-query results (see Repository.QueryIter).
	QueryIter = metadata.Iter
	// QueryOrder selects the result ordering of a planned query.
	QueryOrder = metadata.Order
	// RepoOption configures OpenRepository (segment size, sync policy).
	RepoOption = metadata.Option
	// RepoSyncPolicy selects when the repository fsyncs appended data.
	RepoSyncPolicy = metadata.SyncPolicy
	// RepoStats reports repository storage statistics (Repository.Stats).
	RepoStats = metadata.Stats
	// RepoSegmentStat describes one on-disk segment in RepoStats.
	RepoSegmentStat = metadata.SegmentStat
	// RepoHealth reports degradation: quarantined segments, record gaps,
	// acknowledged-but-not-yet-durable appends (Repository.Health).
	RepoHealth = metadata.Health
	// RepoSegmentHealth describes one quarantined segment in RepoHealth.
	RepoSegmentHealth = metadata.SegmentHealth
	// FsckReport is the result of an offline integrity check (Fsck).
	FsckReport = metadata.FsckReport
	// FsckSegment is one file's verification result in an FsckReport.
	FsckSegment = metadata.FsckSegment
	// QueryExpr is a compiled query predicate (see ParseQuery) — usable
	// with Repository.QueryExprIter and WithOpenFilter.
	QueryExpr = metadata.Expr
	// TailCursor is a live query subscription (Repository.Tail, Follow):
	// matching history first, then new appends as they happen.
	TailCursor = metadata.TailCursor
	// TailOpts is Tail's (empty) options argument.
	TailOpts = metadata.TailOpts
)

// ErrTailEnded ends a tail cursor on a read-only repository once the
// matching history is exhausted: without the writer lease there is no
// live feed to wait on, so the cursor reports a clean end instead of
// blocking forever. TailCursor.Close returns nil for it.
var ErrTailEnded = metadata.ErrTailEnded

// ParseFollowQuery compiles a query that may carry a trailing FOLLOW
// keyword, reporting whether it did — the dieventql grammar behind
// "QUERY ... FOLLOW".
func ParseFollowQuery(q string) (QueryExpr, bool, error) { return metadata.ParseFollow(q) }

// Follow subscribes to a repository as a live query: the cursor yields
// the matching history, then matching records as they are appended — in
// order, exactly once, across segment rolls and compactions. The query
// may (but need not) end with the FOLLOW keyword.
func Follow(repo *Repository, q string, opts TailOpts) (*TailCursor, error) {
	expr, _, err := metadata.ParseFollow(q)
	if err != nil {
		return nil, err
	}
	return repo.Tail(expr, opts)
}

// NewMemRepository builds an empty in-memory repository — the natural
// sink for a live RunStream that in-process followers Tail.
func NewMemRepository() *Repository { return metadata.NewMem() }

// Storage-engine options for OpenRepository / Config.RepoOptions.
var (
	// WithSegmentSize sets the active-segment roll threshold in bytes.
	WithSegmentSize = metadata.WithSegmentSize
	// WithSyncPolicy sets the fsync policy for appended data.
	WithSyncPolicy = metadata.WithSyncPolicy
	// WithReadOnly opens a repository for reading under a shared lease
	// (mutations return ErrRepoReadOnly).
	WithReadOnly = metadata.WithReadOnly
	// WithQuarantine opens in degraded mode: corrupt sealed segments are
	// isolated instead of failing the open; the surviving records stay
	// queryable and Repository.Health reports the loss.
	WithQuarantine = metadata.WithQuarantine
	// WithLockWait makes OpenRepository wait (bounded, context-aware)
	// for a busy directory lease instead of failing immediately.
	WithLockWait = metadata.WithLockWait
	// WithOpenFilter restricts a read-only open to the segments a query
	// predicate cannot exclude via their seal-time statistics (zone
	// maps, bloom filters) — the cold-open pushdown path. Requires
	// WithReadOnly; results for queries the predicate implies are
	// byte-identical to a full open.
	WithOpenFilter = metadata.WithOpenFilter
	// ParseQuery compiles the query language into a QueryExpr.
	ParseQuery = metadata.Parse
)

// Sync policies for WithSyncPolicy.
const (
	// RepoSyncOnSeal (the default) fsyncs segments as they seal.
	RepoSyncOnSeal = metadata.SyncOnSeal
	// RepoSyncAlways fsyncs after every append — maximum durability.
	RepoSyncAlways = metadata.SyncAlways
	// RepoSyncNone skips per-append fsyncs (bulk loads); seals and
	// compaction still fsync.
	RepoSyncNone = metadata.SyncNone
)

// ErrRepoLocked reports that another process holds a conflicting
// lease on a repository directory.
var ErrRepoLocked = metadata.ErrLocked

// ErrRepoReadOnly rejects mutations on a repository opened with
// WithReadOnly.
var ErrRepoReadOnly = metadata.ErrReadOnly

// ErrRepoCorrupt reports unrecoverable on-disk damage (strict open of
// a corrupt segment, a bad manifest checksum, a lost manifest).
var ErrRepoCorrupt = metadata.ErrCorrupt

// ErrRepoQuarantined marks operations refused because they would
// touch quarantined data (e.g. compacting a degraded repository).
var ErrRepoQuarantined = metadata.ErrQuarantined

// Result orderings for QueryOpts.Order.
const (
	// OrderFrame sorts by (frame, ID) ascending — the default.
	OrderFrame = metadata.OrderFrame
	// OrderID yields append (ID) order.
	OrderID = metadata.OrderID
	// OrderFrameDesc sorts by (frame, ID) descending — latest first.
	OrderFrameDesc = metadata.OrderFrameDesc
)

// OpenRepository opens (or creates) a persistent metadata repository,
// taking the directory's exclusive lease (ErrRepoLocked when another
// process holds it). Storage is a segmented append-only log: see
// WithSegmentSize and WithSyncPolicy for the tuning knobs and
// Repository.Stats / Repository.Compact for maintenance.
func OpenRepository(dir string, opts ...RepoOption) (*Repository, error) {
	return metadata.Open(dir, opts...)
}

// Fsck verifies a repository directory offline — manifest checksum,
// strict decode of every sealed segment, the active segment's valid
// prefix — without opening or mutating it. The report lists per-file
// findings and which sealed segments WithQuarantine would isolate.
func Fsck(dir string) (*FsckReport, error) { return metadata.Fsck(dir) }

// Emotion recognition.
type (
	// EmotionLabel is one of the six basic emotions plus neutral.
	EmotionLabel = emotion.Label
	// EmotionClassifier is the LBP+NN recogniser.
	EmotionClassifier = emotion.Classifier
	// EmotionTrainOptions configure classifier training.
	EmotionTrainOptions = emotion.TrainOptions
)

// NewEmotionClassifier builds an untrained LBP+NN classifier.
func NewEmotionClassifier(hidden int, seed int64) (*EmotionClassifier, error) {
	return emotion.NewClassifier(hidden, seed)
}

// GenerateEmotionDataset renders a labelled synthetic face corpus.
var GenerateEmotionDataset = emotion.GenerateDataset

// RenderOptions tune the synthetic sensor.
type RenderOptions = video.RenderOptions

// GazeOptions tune the gaze estimator's noise model.
type GazeOptions = gaze.EstimatorOptions

// Dataset export/import — the paper's planned annotated-dataset
// artefact (see internal/dataset).
type (
	// Dataset is a loaded annotated dataset.
	Dataset = dataset.Dataset
	// DatasetManifest describes an exported dataset.
	DatasetManifest = dataset.Manifest
	// DatasetOptions tune exports.
	DatasetOptions = dataset.ExportOptions
)

// ExportDataset renders a scenario through a rig into dir with
// ground-truth annotations.
func ExportDataset(dir string, sc Scenario, rig *Rig, opt DatasetOptions) (*DatasetManifest, error) {
	return dataset.Export(dir, sc, rig, opt)
}

// LoadDataset opens a previously exported dataset.
func LoadDataset(dir string) (*Dataset, error) { return dataset.Load(dir) }
