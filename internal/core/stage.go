package core

// Stage graph (DESIGN.md §7): the pipeline's extraction and analysis
// work is expressed as named stages over a typed per-(camera, frame)
// artifact store, resolved from a registry, dependency-ordered, and
// scheduled onto the concurrent engine. Adding an analyzer means
// registering a Stage and naming it in Config.Stages — the engine,
// the metadata layout and the other stages are untouched.

import (
	"fmt"
	"hash/fnv"

	"repro/internal/camera"
	"repro/internal/scene"
)

// ArtifactKey names one entry of the per-(camera, frame) artifact
// store. Stages declare the keys they consume (Needs) and produce
// (Provides); the graph builder orders stages so every key is produced
// before it is consumed, and rejects graphs where it cannot.
type ArtifactKey string

// Built-in artifact keys.
const (
	// ArtGray is the rendered grayscale plane of one camera's view.
	ArtGray ArtifactKey = "gray"
	// ArtIntegrals is the plain + squared summed-area table pair of the
	// gray plane. It is materialised lazily — the first consumer's
	// Artifacts.Integrals call builds both tables into worker-owned
	// buffers, every later consumer reuses them — and is only valid
	// during PhasePrepare (the buffers belong to the worker).
	ArtIntegrals ArtifactKey = "integrals"
	// ArtDetections is the frame's face-detection output (cadence
	// frames only; empty otherwise).
	ArtDetections ArtifactKey = "detections"
	// ArtTracks marks that the camera's tracker has been advanced for
	// this frame.
	ArtTracks ArtifactKey = "tracks"
	// ArtCamEmotions is one camera's fused person → emotion map.
	ArtCamEmotions ArtifactKey = "cam-emotions"
	// ArtCamGaze is one camera lane's gaze-observation set (geometric
	// vision produces all observations in its single lane).
	ArtCamGaze ArtifactKey = "cam-gaze"
	// ArtEmotions is the frame-level cross-camera fused emotion map.
	ArtEmotions ArtifactKey = "emotions"
	// ArtGazeObs is the frame-level gaze-observation set.
	ArtGazeObs ArtifactKey = "gaze-obs"
	// ArtLookAt is the frame's look-at matrix (paper Fig. 4).
	ArtLookAt ArtifactKey = "lookat"
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
	// PhaseFinal stages run once after the frame loop (video parsing,
	// derived records, summarize).
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
	// Name identifies the stage in the registry, the run manifest, the
	// timing table and Config.Stages.
	Name string
	// Version is bumped when the stage's algorithm changes; the run
	// manifest records it so incremental runs re-derive stale output.
	Version int
	// Phase is where the engine schedules the stage.
	Phase StagePhase
	// Needs lists artifact keys the stage consumes; every key must be
	// Provided by an earlier stage of the resolved graph.
	Needs []ArtifactKey
	// Provides lists artifact keys the stage produces.
	Provides []ArtifactKey
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
	// NewScratch allocates one worker's reusable scratch for this stage
	// (PhasePrepare only; nil when the stage keeps no scratch).
	NewScratch func() any
	// RunCam executes the stage for one (camera, frame).
	RunCam func(env *runEnv, a *Artifacts, scratch any) error
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

// StageFactory builds a fresh Stage instance for one run. Factories own
// all per-run state (renderers, trackers, analyzers) via the returned
// stage's closures, so a Pipeline stays reusable.
type StageFactory func(b *stageBuild) (*Stage, error)

// stageBuild is everything a factory may consult while building.
// Custom factories reach it through the exported StageBuild alias and
// its accessors.
type stageBuild struct {
	cfg       Config
	sim       *scene.Simulator
	rig       *camera.Rig
	ids       []int
	nCams     int
	numFrames int
}

// StageBuild is the build context handed to stage factories.
type StageBuild = stageBuild

// Config is the run's full configuration.
func (b *stageBuild) Config() Config { return b.cfg }

// Rig is the run's camera platform.
func (b *stageBuild) Rig() *camera.Rig { return b.rig }

// Simulator evaluates the run's scenario frame by frame.
func (b *stageBuild) Simulator() *scene.Simulator { return b.sim }

// IDs lists the participant IDs in declaration order.
func (b *stageBuild) IDs() []int { return append([]int(nil), b.ids...) }

// Cameras is the number of extraction lanes (pixel cameras, or 1).
func (b *stageBuild) Cameras() int { return b.nCams }

// NumFrames is the number of frames the run analyses.
func (b *stageBuild) NumFrames() int { return b.numFrames }

// Registry maps stage names to factories. The zero value is unusable;
// use NewRegistry (which seeds the built-in stages) and Register
// additions on top.
type Registry struct {
	order     []string
	factories map[string]StageFactory
}

// NewRegistry returns a registry seeded with every built-in stage.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]StageFactory)}
	registerBuiltins(r)
	return r
}

// Register adds a stage factory under a unique name.
func (r *Registry) Register(name string, f StageFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("core: registering stage %q: empty name or nil factory: %w", name, ErrBadConfig)
	}
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("core: stage %q already registered: %w", name, ErrBadConfig)
	}
	r.order = append(r.order, name)
	r.factories[name] = f
	return nil
}

// Names lists the registered stage names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Has reports whether a stage name is registered.
func (r *Registry) Has(name string) bool {
	_, ok := r.factories[name]
	return ok
}

// stageGraph is a resolved, validated, dependency-ordered stage set.
type stageGraph struct {
	stages []*Stage
	// byPhase[p] lists the phase's stages in execution order.
	byPhase [numPhases][]*Stage
}

// buildGraph resolves names through the registry, builds the stages
// and orders each phase topologically by Needs/Provides (stable: ties
// keep request order, so runs are deterministic).
func buildGraph(reg *Registry, names []string, b *stageBuild) (*stageGraph, error) {
	g := &stageGraph{}
	seen := make(map[string]bool, len(names))
	providers := make(map[ArtifactKey]*Stage)
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("core: stage %q requested twice: %w", name, ErrBadConfig)
		}
		seen[name] = true
		f, ok := reg.factories[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown stage %q (registered: %v): %w", name, reg.Names(), ErrBadConfig)
		}
		st, err := f(b)
		if err != nil {
			return nil, fmt.Errorf("core: building stage %q: %w", name, err)
		}
		if st.Name != name {
			return nil, fmt.Errorf("core: stage %q built under name %q: %w", name, st.Name, ErrBadConfig)
		}
		if err := checkStageShape(st); err != nil {
			return nil, err
		}
		for _, k := range st.Provides {
			if prev, dup := providers[k]; dup {
				return nil, fmt.Errorf("core: artifact %q provided by both %q and %q: %w", k, prev.Name, st.Name, ErrBadConfig)
			}
			providers[k] = st
		}
		g.stages = append(g.stages, st)
	}
	// Dependency validation: a consumer's provider must exist and run
	// no later than the consumer's phase; the worker-scoped integral
	// tables are additionally prepare-only.
	for _, st := range g.stages {
		for _, k := range st.Needs {
			p, ok := providers[k]
			if !ok {
				return nil, fmt.Errorf("core: stage %q needs artifact %q but no requested stage provides it: %w", st.Name, k, ErrBadConfig)
			}
			if p.Phase > st.Phase {
				return nil, fmt.Errorf("core: stage %q (phase %v) needs %q from later-phase %q (%v): %w",
					st.Name, st.Phase, k, p.Name, p.Phase, ErrBadConfig)
			}
			// Lifetime guards: some artifacts do not survive their
			// producing phases. The integral tables live in worker
			// scratch (overwritten by the worker's next frame), the
			// gray plane returns to its pool after the ordered phase,
			// and Track pointers are live tracker state the lane
			// consumer keeps mutating on later frames — reading them
			// from the merger on would race.
			switch {
			case k == ArtIntegrals && st.Phase != PhasePrepare:
				return nil, fmt.Errorf("core: stage %q consumes %q outside the prepare phase (tables are worker-scoped): %w", st.Name, k, ErrBadConfig)
			case k == ArtGray && st.Phase > PhaseOrdered:
				return nil, fmt.Errorf("core: stage %q consumes %q after the ordered phase (the plane is released to its pool): %w", st.Name, k, ErrBadConfig)
			case k == ArtTracks && st.Phase != PhaseOrdered:
				return nil, fmt.Errorf("core: stage %q consumes %q outside the ordered phase (tracks are live per-lane state): %w", st.Name, k, ErrBadConfig)
			}
		}
	}
	for p := StagePhase(0); p < numPhases; p++ {
		phase := make([]*Stage, 0)
		for _, st := range g.stages {
			if st.Phase == p {
				phase = append(phase, st)
			}
		}
		sorted, err := topoSort(phase, providers)
		if err != nil {
			return nil, err
		}
		g.byPhase[p] = sorted
	}
	return g, nil
}

// checkStageShape validates the phase ↔ callback pairing.
func checkStageShape(st *Stage) error {
	bad := func(why string) error {
		return fmt.Errorf("core: stage %q (%v): %s: %w", st.Name, st.Phase, why, ErrBadConfig)
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
	if st.NewScratch != nil && st.Phase != PhasePrepare {
		return bad("worker scratch is prepare-only")
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

// topoSort orders one phase's stages so providers precede consumers,
// keeping the incoming (request) order among independent stages. Only
// same-phase edges constrain the sort — cross-phase edges are already
// satisfied by phase ordering.
func topoSort(stages []*Stage, providers map[ArtifactKey]*Stage) ([]*Stage, error) {
	if len(stages) <= 1 {
		return stages, nil
	}
	idx := make(map[*Stage]int, len(stages))
	for i, st := range stages {
		idx[st] = i
	}
	indeg := make([]int, len(stages))
	succ := make([][]int, len(stages))
	for i, st := range stages {
		for _, k := range st.Needs {
			p := providers[k]
			if p == nil || p == st {
				continue
			}
			if j, same := idx[p]; same {
				succ[j] = append(succ[j], i)
				indeg[i]++
			}
		}
	}
	out := make([]*Stage, 0, len(stages))
	ready := make([]int, 0, len(stages))
	for i := range stages {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		// Lowest request index first keeps the order deterministic.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, stages[n])
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(out) != len(stages) {
		stuck := make([]string, 0)
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, stages[i].Name)
			}
		}
		return nil, fmt.Errorf("core: stage dependency cycle through %v: %w", stuck, ErrBadConfig)
	}
	return out, nil
}

// configHash fingerprints a stage's Config string for the run manifest.
func configHash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
