package core

// Online derived stages (DESIGN.md §10): windowed operators that turn
// the stage graph into a live analysis surface. StageDiningPhase decodes
// the scenario's dining phase over a sliding symbol window mid-stream
// and over the full sequence at end of run; StageLiveSummary publishes a
// rolling overall-happiness / dominance digest at its emit cadence.
// Both are opt-in via Config.Stages (like "attention-span") and emit
// their live records only on Live streams, so plain runs and finite
// non-live streams stay byte-identical to the end-of-run oracle.

import (
	"fmt"

	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/hmm"
	"repro/internal/metadata"
	"repro/internal/scene"
)

// Online stage names.
const (
	StageDiningPhase = "dining-phase"
	StageLiveSummary = "live-summary"
)

// Dining-phase decoding window and cadence (frames).
const (
	diningWindow    = 64
	diningEmitEvery = 16
)

// Live-summary rolling window and cadence (frames).
const (
	liveSummaryWindow    = 50
	liveSummaryEmitEvery = 25
)

// phaseSpans collapses a decoded state sequence into contiguous spans,
// offsetting frame indexes by offset (non-zero when a bounded stream
// only retained the window tail).
func phaseSpans(states []int, offset int) []PhaseSpan {
	var spans []PhaseSpan
	for i := 0; i < len(states); {
		j := i
		for j < len(states) && states[j] == states[i] {
			j++
		}
		spans = append(spans, PhaseSpan{
			Phase: scene.Phase(states[i]).String(),
			Start: offset + i, End: offset + j,
		})
		i = j
	}
	return spans
}

// diningPhaseStage decodes dining phases with a supervised HMM (the
// Gao-protocol model of the hmm package, states = phases). Per frame it
// quantises the ground-truth state into a dining symbol; at emit ticks
// on live streams it Viterbi-decodes the trailing window and publishes
// the current phase estimate as a "live-phase" record; at end of run it
// decodes the whole sequence into Result.Phases plus "dining-phase"
// span records. On bounded streams only the window tail is retained, so
// the final decode covers just that tail (partial result, flat memory).
func diningPhaseStage(b *stageBuild) (*Stage, error) {
	seed := b.cfg.Gaze.Seed
	syms, phases := hmm.FeaturizeScenario(b.sim, 0, seed)
	model, err := hmm.FitSupervised([][]int{syms}, [][]scene.Phase{phases}, hmm.DiningSymbols)
	if err != nil {
		return nil, fmt.Errorf("core: fitting dining-phase model: %w", err)
	}
	var all []int
	win := make([]int, 0, diningWindow)
	return &Stage{
		Name:    StageDiningPhase,
		Version: 1,
		Phase:   PhaseFrame,
		Config:  fmt.Sprintf("window=%d emit=%d seed=%d", diningWindow, diningEmitEvery, seed),
		Emit:    diningEmitEvery,
		RunFrame: func(env *runEnv, fa *FrameArtifacts) error {
			s := hmm.DiningSymbol(fa.FS, 0, seed)
			if len(win) == diningWindow {
				copy(win, win[1:])
				win[len(win)-1] = s
			} else {
				win = append(win, s)
			}
			if !env.opts.Bounded {
				all = append(all, s)
			}
			return nil
		},
		RunEmit: func(env *runEnv, fa *FrameArtifacts) error {
			if !env.opts.Live || len(win) == 0 {
				return nil
			}
			states, err := model.Viterbi(win)
			if err != nil {
				return fmt.Errorf("decoding phase window: %w", err)
			}
			ph := scene.Phase(states[len(states)-1])
			env.queueDerived(metadata.Record{
				Kind: metadata.KindEvent, Frame: fa.Index, FrameEnd: fa.Index + 1,
				Time: fa.FS.Time, Person: -1, Other: -1,
				Label: "live-phase", Value: float64(ph),
				Tags: map[string]string{"phase": ph.String()},
			})
			return nil
		},
		RunFinal: func(env *runEnv) error {
			seq, offset := all, 0
			if env.opts.Bounded {
				seq, offset = win, env.framesDone-len(win)
			}
			if len(seq) == 0 {
				return nil
			}
			states, err := model.Viterbi(seq)
			if err != nil {
				return fmt.Errorf("decoding dining phases: %w", err)
			}
			spans := phaseSpans(states, offset)
			env.res.Phases = spans
			recs := make([]metadata.Record, 0, len(spans))
			for _, sp := range spans {
				recs = append(recs, metadata.Record{
					Kind: metadata.KindEvent, Frame: sp.Start, FrameEnd: sp.End,
					Person: -1, Other: -1,
					Label: "dining-phase", Value: float64(sp.End - sp.Start),
					Tags: map[string]string{"phase": sp.Phase},
				})
			}
			return env.repo.AppendBatch(recs)
		},
	}, nil
}

// liveSummaryStage maintains the cumulative Fig. 9 look-at summary plus
// a rolling overall-happiness window, publishing a "live-summary"
// record at each emit tick on live streams: the rolling mean OH as the
// value, the currently dominant participant as the person. It derives
// nothing at end of run — the multilayer and summarize stages own the
// final digest — so plain runs are untouched by enabling it.
func liveSummaryStage(b *stageBuild) (*Stage, error) {
	sum := gaze.NewSummary(b.ids)
	ids := b.ids
	ohWin := make([]float64, 0, liveSummaryWindow)
	return &Stage{
		Name:    StageLiveSummary,
		Version: 1,
		Phase:   PhaseFrame,
		Config:  fmt.Sprintf("window=%d emit=%d", liveSummaryWindow, liveSummaryEmitEvery),
		Emit:    liveSummaryEmitEvery,
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			if err := sum.Add(fa.LookAt); err != nil {
				return err
			}
			// Confidence-weighted happy share, iterated in fixed ID order
			// so the float sum is deterministic across runs.
			var happy, total float64
			for _, id := range ids {
				e, ok := fa.Emotions[id]
				if !ok || e.Confidence <= 0 {
					continue
				}
				total += e.Confidence
				if e.Label == emotion.Happy {
					happy += e.Confidence
				}
			}
			v := 0.0
			if total > 0 {
				v = happy / total * 100
			}
			if len(ohWin) == liveSummaryWindow {
				copy(ohWin, ohWin[1:])
				ohWin[len(ohWin)-1] = v
			} else {
				ohWin = append(ohWin, v)
			}
			return nil
		},
		RunEmit: func(env *runEnv, fa *FrameArtifacts) error {
			if !env.opts.Live || len(ohWin) == 0 {
				return nil
			}
			var s float64
			for _, v := range ohWin {
				s += v
			}
			env.queueDerived(metadata.Record{
				Kind: metadata.KindEvent, Frame: fa.Index, FrameEnd: fa.Index + 1,
				Time: fa.FS.Time, Person: sum.Dominant(), Other: -1,
				Label: "live-summary", Value: s / float64(len(ohWin)),
			})
			return nil
		},
	}, nil
}
