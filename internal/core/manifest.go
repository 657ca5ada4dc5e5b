package core

// Run manifest and incremental re-extraction (DESIGN.md §7). Runs with
// Config.Incremental persist, through the metadata repository, a
// manifest of the executed stage graph — one annotation record per
// stage carrying its name, version and config hash, plus one run-level
// identity record — alongside the raw look-at layer ("lookat"
// observation records). Pipeline.RunIncremental diffs a new
// configuration's stage graph against a previous run's manifest and
// re-runs only the missing/stale stages, replaying every fresh raw
// layer from the stored records instead of re-extracting it — e.g. a
// retrained emotion model re-emits only the emotion and downstream
// derived records without re-decoding video.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/layers"
	"repro/internal/metadata"
	"repro/internal/scene"
)

// Manifest record vocabulary.
const (
	// lookatLabel tags the persisted raw gaze layer: one observation
	// record per look-at edge per frame.
	lookatLabel = "lookat"
	// runManifestLabel tags the run-level identity record.
	runManifestLabel = "run-manifest"
	// stageManifestLabel tags the per-stage manifest records.
	stageManifestLabel = "stage-manifest"
)

// ErrNoManifest reports that a repository holds no run manifest, so an
// incremental run cannot diff against it (run with Config.Incremental
// to write one).
var ErrNoManifest = errors.New("core: repository has no run manifest")

// manifestEntry is one stage's recorded fingerprint.
type manifestEntry struct {
	version int
	config  string
}

// runIdentity fingerprints everything that makes two runs' raw layers
// interchangeable: scenario, rig shape, vision mode, frame count and
// the effective extraction-lane count (not the raw PixelCameras
// knob — 0 and 1 mean the same thing, and geometric runs ignore it
// entirely). Any mismatch forces a full re-extraction.
func (p *Pipeline) runIdentity(numFrames, nCams int) string {
	return fmt.Sprintf("mode=%v frames=%d cams=%d lanes=%d scenario=%s",
		p.cfg.Mode, numFrames, len(p.rig.Cameras), nCams,
		configHash(fmt.Sprintf("%+v", p.cfg.Scenario)))
}

// manifestStage persists the run manifest: the run identity plus each
// executed stage's (name, version, config-hash) triple. It is listed
// only on manifest-keeping runs, so default runs stay byte-identical to
// the monolithic oracle.
func manifestStage(b *stageBuild) (*Stage, error) {
	numFrames := b.numFrames
	return &Stage{
		Name:    StageManifest,
		Version: 1,
		Phase:   PhaseFinal,
		RunFinal: func(env *runEnv) error {
			recs := []metadata.Record{{
				Kind: metadata.KindAnnotation, Frame: 0, FrameEnd: numFrames,
				Person: -1, Other: -1, Label: runManifestLabel,
				Tags: map[string]string{"identity": env.identity},
			}}
			for _, st := range env.graph.stages {
				recs = append(recs, metadata.Record{
					Kind: metadata.KindAnnotation, Frame: 0, FrameEnd: numFrames,
					Person: -1, Other: -1, Label: stageManifestLabel,
					Tags: map[string]string{
						"stage":   st.Name,
						"version": itoa(st.Version),
						"config":  configHash(st.Config),
					},
				})
			}
			if err := env.repo.AppendBatch(recs); err != nil {
				return fmt.Errorf("writing manifest: %w", err)
			}
			return nil
		},
	}, nil
}

// readManifest loads the run identity and per-stage entries of the
// repository's latest run. Like loadReplay, it resets at every run
// boundary (the context records each run writes first), so a
// directory whose newest appended run kept no manifest — an
// Incremental=false run, or one that failed before the manifest
// stage — reports ErrNoManifest instead of pairing an older manifest
// with the newer run's raw layers.
func readManifest(prev *metadata.Repository) (identity string, entries map[string]manifestEntry, err error) {
	entries = make(map[string]manifestEntry)
	scanErr := prev.Scan(func(r metadata.Record) bool {
		if r.Kind == metadata.KindContext && r.Label == "occasion" {
			identity = ""
			entries = make(map[string]manifestEntry)
			return true
		}
		if r.Kind != metadata.KindAnnotation {
			return true
		}
		switch r.Label {
		case runManifestLabel:
			identity = r.Tags["identity"]
		case stageManifestLabel:
			v := 0
			fmt.Sscanf(r.Tags["version"], "%d", &v)
			entries[r.Tags["stage"]] = manifestEntry{version: v, config: r.Tags["config"]}
		}
		return true
	})
	if scanErr != nil {
		return "", nil, fmt.Errorf("core: reading manifest: %w", scanErr)
	}
	if identity == "" || len(entries) == 0 {
		return "", nil, ErrNoManifest
	}
	return identity, entries, nil
}

// replayData is the raw layer replayed from a previous run.
type replayData struct {
	// lookat[i] is frame i's reconstructed look-at matrix (nil slice
	// when the gaze chain is stale and recomputed instead).
	lookat []gaze.Matrix
	// emotions[i] is frame i's person → emotion map.
	emotions []map[int]layers.EmotionObs
	// rerun marks extraction stages that execute this run; everything
	// else replays.
	rerun map[string]bool
	// gazeReplayed / emoReplayed select the per-frame source.
	gazeReplayed, emoReplayed bool
	// stale and reused are the manifest-diff outcome, for Result.
	stale, reused []string
}

// gazeChainStages produce the look-at layer; emotionChainStages
// produce the raw emotion layer. Staleness anywhere in a chain re-runs
// the whole chain (its stages feed each other within one frame).
var (
	gazeChainStages    = []string{StageGeoGaze, StagePxGaze, StageCollectGaze, StageGazeAnalysis}
	emotionChainStages = []string{StageGeoEmotion, StageFuseEmotions}
)

// loadReplay reconstructs the raw layers of prev for every frame. A
// repository directory can accumulate several appended runs (the log
// is append-only); records scan in append order, so the accumulators
// are reset at every run boundary — the context records each run
// writes first — and only the latest run's raw layers survive,
// matching readManifest's latest-wins rule.
func loadReplay(prev *metadata.Repository, numFrames int, ids []int) (*replayData, error) {
	rd := &replayData{}
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	reset := func() {
		rd.lookat = make([]gaze.Matrix, numFrames)
		rd.emotions = make([]map[int]layers.EmotionObs, numFrames)
		for i := range rd.lookat {
			rd.lookat[i] = gaze.NewMatrix(ids)
			rd.emotions[i] = make(map[int]layers.EmotionObs)
		}
	}
	reset()
	err := prev.Scan(func(r metadata.Record) bool {
		if r.Kind == metadata.KindContext && r.Label == "occasion" {
			reset() // a new run's records begin here
			return true
		}
		if r.Kind != metadata.KindObservation || r.Frame < 0 || r.Frame >= numFrames {
			return true
		}
		if r.Label == lookatLabel {
			fi, fok := idx[r.Person]
			ti, tok := idx[r.Other]
			if fok && tok {
				rd.lookat[r.Frame].M[fi][ti] = 1
			}
			return true
		}
		label, perr := emotion.ParseLabel(r.Label)
		if perr != nil {
			return true // not a raw emotion record
		}
		rd.emotions[r.Frame][r.Person] = layers.EmotionObs{Label: label, Confidence: r.Value}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("core: replaying raw layers: %w", err)
	}
	return rd, nil
}

// RunIncremental executes the pipeline against a previous run's
// repository: it diffs the requested stage graph against the manifest
// recorded in prev (Config.Incremental runs write one) and re-runs
// only missing or stale stages — extra names in stale force
// re-derivation, e.g. after retraining a model whose fingerprint the
// stage cannot see. Fresh raw layers (look-at edges, emotion
// observations) are replayed from prev's records instead of
// re-extracted, so a stale-emotion re-run skips the gaze chain
// entirely and the vision layers never re-render; derived stages
// always re-run. The output is a complete,
// self-contained result — records are byte-identical to a full run of
// the same configuration — written to a fresh repository per
// Config.RepoDir, which must not be the directory prev holds open
// (prev is only read; the caller still owns closing both).
//
// Falls back to a full run when prev's run identity (scenario, rig,
// mode, frame count) differs, and returns ErrNoManifest when prev
// carries no manifest. Stages whose re-extraction needs rendered
// pixels (the pixel vision's render/detect/track/classify chain)
// cannot be partially re-run: staleness there also falls back to a
// full run.
func (p *Pipeline) RunIncremental(prev *metadata.Repository, stale ...string) (*Result, error) {
	if dir := prev.Dir(); dir != "" && dir == p.cfg.RepoDir {
		// prev holds the directory's exclusive lease; opening the
		// output repository there would deadlock on ErrLocked with a
		// message blaming "another process".
		return nil, fmt.Errorf("core: incremental output RepoDir %q is the previous run's open repository — write elsewhere (or leave RepoDir empty for in-memory): %w", dir, ErrBadConfig)
	}
	graph, b, err := p.buildStages(true, p.scenarioFrames())
	if err != nil {
		return nil, err
	}
	identity, entries, err := readManifest(prev)
	if err != nil {
		return nil, err
	}
	if identity != p.runIdentity(b.numFrames, b.nCams) {
		// The previous run's raw layers describe a different event —
		// nothing is replayable.
		return p.run(graph, b, StreamOptions{}, nil)
	}

	forced := make(map[string]bool, len(stale))
	known := make(map[string]bool, len(graph.stages))
	for _, st := range graph.stages {
		known[st.Name] = true
	}
	for _, name := range stale {
		if !known[name] {
			return nil, fmt.Errorf("core: -rederive stage %q not in this run's graph: %w", name, ErrBadConfig)
		}
		forced[name] = true
	}

	staleSet := make(map[string]bool)
	for _, st := range graph.stages {
		e, ok := entries[st.Name]
		if forced[st.Name] || !ok || e.version != st.Version || e.config != configHash(st.Config) {
			staleSet[st.Name] = true
		}
	}

	// Stale extraction stages must be recomputable from frame state
	// alone; otherwise the raw layer cannot be rebuilt without video.
	for _, st := range graph.stages {
		if staleSet[st.Name] && st.Phase < PhaseFrame && !st.Replayable {
			return p.run(graph, b, StreamOptions{}, nil)
		}
	}

	rd, err := loadReplay(prev, b.numFrames, b.ids)
	if err != nil {
		return nil, err
	}
	rd.rerun = make(map[string]bool)
	inChain := func(chain []string) bool {
		for _, n := range chain {
			if staleSet[n] {
				return true
			}
		}
		return false
	}
	if inChain(gazeChainStages) {
		for _, n := range gazeChainStages {
			rd.rerun[n] = true
		}
	} else {
		rd.gazeReplayed = true
	}
	if inChain(emotionChainStages) {
		for _, n := range emotionChainStages {
			rd.rerun[n] = true
		}
	} else {
		rd.emoReplayed = true
	}
	for _, st := range graph.stages {
		if staleSet[st.Name] {
			rd.stale = append(rd.stale, st.Name)
		} else if st.Phase < PhaseFrame && !rd.rerun[st.Name] {
			rd.reused = append(rd.reused, st.Name)
		}
	}
	sort.Strings(rd.stale)
	sort.Strings(rd.reused)

	return p.run(graph.replaying(rd), b, StreamOptions{}, rd)
}

// replaying narrows the graph to what an incremental run executes:
// of the extraction phases only the re-running stages, and of the frame
// phase everything except a gaze analysis whose look-at layer is
// replayed. stages stays complete — the manifest records every stage.
func (g *stageGraph) replaying(rd *replayData) *stageGraph {
	out := &stageGraph{stages: g.stages}
	out.byPhase[PhaseFinal] = g.byPhase[PhaseFinal]
	for ph := PhasePrepare; ph <= PhaseFrame; ph++ {
		for _, st := range g.byPhase[ph] {
			keep := rd.rerun[st.Name]
			if ph == PhaseFrame {
				keep = !(st.Name == StageGazeAnalysis && rd.gazeReplayed)
			}
			if keep {
				out.byPhase[ph] = append(out.byPhase[ph], st)
			}
		}
	}
	return out
}

// replayVision is the incremental run's frame source: the stale
// extraction stages are recomputed from the frame state — the narrowed
// graph on one lane, through the same stage code as a full run — and
// the fresh raw layers come from the replay store. No engine, no
// rendering: a frame is a pure function of (frame state, replayed
// records), so it runs on runFrames' sequential loop.
type replayVision struct {
	stale *graphVision
	rd    *replayData
}

func (v *replayVision) extract(fs scene.FrameState) (any, error) {
	out, err := v.stale.extract(fs)
	if err != nil {
		return nil, err
	}
	fa := out.(*FrameArtifacts)
	if v.rd.gazeReplayed {
		fa.LookAt = v.rd.lookat[fs.Index]
	}
	if v.rd.emoReplayed {
		fa.Emotions = v.rd.emotions[fs.Index]
	}
	return fa, nil
}
