package core

// Stage graph (DESIGN.md §7): the pipeline's extraction and analysis
// work is a fixed list of named stages over typed per-(camera, frame)
// and per-frame artifact stores. resolveStageNames lists a run's
// stages; each phase runs its stages in that list's order on the
// concurrent engine. Adding an analyzer means adding a built-in Stage,
// listing it in builtinStages and analyzerStages, and naming it in
// Config.Stages — the engine, the metadata layout and the other stages
// are untouched.

import (
	"fmt"
	"hash/fnv"

	"repro/internal/camera"
	"repro/internal/scene"
)

// StagePhase is where in the engine a stage executes.
type StagePhase uint8

// Stage phases, in execution order.
const (
	// PhasePrepare stages run the stateless per-(camera, frame) work on
	// any worker in any order (render, detect).
	PhasePrepare StagePhase = iota
	// PhaseOrdered stages advance per-camera state and see each
	// camera's frames in strict order (track, classify).
	PhaseOrdered
	// PhaseMerge stages fuse the per-camera artifacts of one frame, in
	// frame order, on the merger goroutine.
	PhaseMerge
	// PhaseFrame stages consume one merged frame at a time, in frame
	// order, on the serial analysis goroutine (gaze analysis,
	// multilayer, raw-record emission).
	PhaseFrame
	// PhaseFinal stages run once after the frame loop (derived records,
	// summarize).
	PhaseFinal

	numPhases
)

// String names the phase.
func (p StagePhase) String() string {
	switch p {
	case PhasePrepare:
		return "prepare"
	case PhaseOrdered:
		return "ordered"
	case PhaseMerge:
		return "merge"
	case PhaseFrame:
		return "frame"
	case PhaseFinal:
		return "final"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Stage is one unit of pipeline work. Exactly one Run callback must be
// set, matching the phase: RunCam for PhasePrepare/PhaseOrdered,
// RunFrame for PhaseMerge/PhaseFrame, RunFinal for PhaseFinal.
// PhaseFrame stages may additionally set RunFinal for end-of-run
// flushing (the multilayer finalize, analyzer summaries).
type Stage struct {
	// Name identifies the stage in the run manifest, the timing table
	// and Config.Stages.
	Name string
	// Version is bumped when the stage's algorithm changes; the run
	// manifest records it so incremental runs re-derive stale output.
	Version int
	// Phase is where the engine schedules the stage.
	Phase StagePhase
	// Config is the canonical rendering of the configuration the stage
	// read when it was built; its hash is persisted in the run manifest
	// and compared on incremental runs.
	Config string
	// Replayable marks extraction stages whose output is a pure
	// function of the frame state (no rendered pixels, no per-camera
	// state), so an incremental run can recompute them when stale
	// without re-decoding video. Stages of PhaseFrame/PhaseFinal need
	// no flag: they always re-derive.
	Replayable bool
	// RunCam executes the stage for one (camera, frame).
	RunCam func(env *runEnv, a *Artifacts) error
	// RunFrame executes the stage for one merged frame.
	RunFrame func(env *runEnv, fa *FrameArtifacts) error
	// RunFinal executes once after the frame loop.
	RunFinal func(env *runEnv) error

	// Emit is the stage's incremental emission cadence in frames: during
	// streaming runs (RunStream with Live or Bounded set) the engine
	// invokes RunEmit after every Emit-th merged frame. 0 = never.
	Emit int
	// RunEmit is the stage's incremental windowed operator: it emits or
	// drains derived output mid-stream (live records, span draining,
	// series trimming) every Emit frames. The stage owns its window —
	// whatever trailing state RunEmit needs is kept (and, on Bounded
	// streams, trimmed) by the stage's own closure; the engine retains
	// no frame after RunFrame returns. RunEmit is never invoked on a
	// stream with Live and Bounded off, so stage output there stays
	// byte-identical to the end-of-run oracle (PhaseFrame only; requires
	// Emit > 0).
	RunEmit func(env *runEnv, fa *FrameArtifacts) error
}

// stageFactory builds a fresh Stage instance for one run. Factories own
// all per-run state (renderers, trackers, analyzers) via the returned
// stage's closures, so a Pipeline stays reusable.
type stageFactory func(b *stageBuild) (*Stage, error)

// stageBuild is everything a factory may consult while building.
type stageBuild struct {
	cfg       Config
	sim       *scene.Simulator
	rig       *camera.Rig
	ids       []int
	nCams     int
	numFrames int
}

// builtinStages maps every built-in stage name to its factory.
var builtinStages = map[string]stageFactory{
	StageRender:       renderStage,
	StageDetect:       detectStage,
	StageTrack:        trackStage,
	StageClassify:     classifyStage,
	StageGeoGaze:      geoGazeStage,
	StageGeoEmotion:   geoEmotionStage,
	StageCollectGaze:  collectGazeStage,
	StagePxGaze:       pxGazeStage,
	StageFuseEmotions: fuseEmotionsStage,
	StageGazeAnalysis: gazeAnalysisStage,
	StageMultilayer:   multilayerStage,
	StageObservations: observationsStage,
	StageAttention:    attentionStage,
	StageDiningPhase:  diningPhaseStage,
	StageLiveSummary:  liveSummaryStage,
	StageDerived:      derivedRecordsStage,
	StageManifest:     manifestStage,
	StageSummarize:    summarizeStage,
}

// analyzerStages are the optional built-in stages Config.Stages may
// name. Each is a frame-phase stage that reads only the merged frame.
var analyzerStages = []string{StageAttention, StageDiningPhase, StageLiveSummary}

// stageGraph is a run's built stage list.
type stageGraph struct {
	// stages is every stage in list order (the manifest records each).
	stages []*Stage
	// byPhase[p] lists the phase's stages in execution order.
	byPhase [numPhases][]*Stage
}

// buildGraph builds the named stages and files each under its phase,
// keeping list order within a phase. Config's test seam supplies the
// factory of a name it holds; every other name is built-in.
func buildGraph(names []string, b *stageBuild) (*stageGraph, error) {
	g := &stageGraph{}
	for _, name := range names {
		f := b.cfg.testStages[name]
		if f == nil {
			f = builtinStages[name]
		}
		st, err := f(b)
		if err != nil {
			return nil, fmt.Errorf("core: building stage %q: %w", name, err)
		}
		g.stages = append(g.stages, st)
		g.byPhase[st.Phase] = append(g.byPhase[st.Phase], st)
	}
	return g, nil
}

// configHash fingerprints a stage's Config string for the run manifest.
func configHash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
