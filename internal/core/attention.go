package core

// Attention-span analyzer — the stage-graph's proof-of-plug-in
// (DESIGN.md §7): a derived layer computed from the per-frame look-at
// matrix without touching the engine or the other stages. Enable it
// with Config.Stages = []string{"attention-span"}; it contributes
// AttentionResult to the run result and an "attention-span" /
// "attention-mean" derived record layer to the repository.

import (
	"time"

	"repro/internal/metadata"
)

// minAttentionFrames is the shortest gaze fixation reported as a span
// (12 frames ≈ 0.5 s at 25 fps, matching the eye-contact threshold).
const minAttentionFrames = 12

// AttentionSpan is one contiguous run of a participant fixating the
// same target.
type AttentionSpan struct {
	// Person is the gazer; Target the participant fixated.
	Person, Target int
	// Start and End are frame indexes, [Start, End).
	Start, End int
	// StartTime is the timestamp of Start.
	StartTime time.Duration
}

// Frames returns the span length in frames.
func (s AttentionSpan) Frames() int { return s.End - s.Start }

// AttentionStat summarises one participant's gaze persistence.
type AttentionStat struct {
	Person int
	// Spans is the number of fixations ≥ the reporting threshold.
	Spans int
	// MeanFrames is the mean fixation length.
	MeanFrames float64
	// LongestFrames is the longest fixation.
	LongestFrames int
}

// AttentionResult is the attention-span analyzer's derived layer.
type AttentionResult struct {
	Spans []AttentionSpan
	Stats []AttentionStat
}

// attentionAnalyzer accumulates per-person fixation runs from the raw
// look-at matrices. Stats accumulate incrementally as runs close, so a
// bounded stream can drain closed spans out of memory (drainClosed)
// without changing what finalize reports — the rolling variant is
// byte-identical to the end-of-run rescan on finite streams.
type attentionAnalyzer struct {
	ids    []int
	cur    []int // current target per person index; -1 = none
	start  []int // run start frame
	startT []time.Duration
	last   int
	spans  []AttentionSpan
	// emitted counts the prefix of spans already emitted live, so the
	// final record pass writes each span exactly once.
	emitted int
	// Per-person running stats, updated at close time.
	statSpans   []int
	statTotal   []int
	statLongest []int
}

func newAttentionAnalyzer(ids []int) *attentionAnalyzer {
	a := &attentionAnalyzer{
		ids:         ids,
		cur:         make([]int, len(ids)),
		start:       make([]int, len(ids)),
		startT:      make([]time.Duration, len(ids)),
		last:        -1,
		statSpans:   make([]int, len(ids)),
		statTotal:   make([]int, len(ids)),
		statLongest: make([]int, len(ids)),
	}
	for i := range a.cur {
		a.cur[i] = -1
	}
	return a
}

// push consumes one frame's matrix. The target of person i is the
// lowest-indexed participant their row marks (ties toward the lower
// ID, matching the matrix's deterministic ordering), or −1.
func (a *attentionAnalyzer) push(fa *FrameArtifacts) {
	m := fa.LookAt
	a.last = fa.Index
	for pi := range a.ids {
		target := -1
		if pi < len(m.M) {
			for j := range m.M[pi] {
				if m.M[pi][j] == 1 {
					target = m.IDs[j]
					break
				}
			}
		}
		if target == a.cur[pi] {
			continue
		}
		a.close(pi, fa.Index)
		a.cur[pi] = target
		a.start[pi] = fa.Index
		a.startT[pi] = fa.FS.Time
	}
}

// close ends person pi's open run at frame end, keeping it if long
// enough and folding it into the running stats.
func (a *attentionAnalyzer) close(pi, end int) {
	if a.cur[pi] < 0 {
		return
	}
	n := end - a.start[pi]
	if n >= minAttentionFrames {
		a.spans = append(a.spans, AttentionSpan{
			Person: a.ids[pi], Target: a.cur[pi],
			Start: a.start[pi], End: end, StartTime: a.startT[pi],
		})
		a.statSpans[pi]++
		a.statTotal[pi] += n
		if n > a.statLongest[pi] {
			a.statLongest[pi] = n
		}
	}
}

// drainClosed returns the spans closed since the last drain. With trim
// set (bounded streams) the drained spans leave memory — the running
// stats already carry their contribution, so finalize's aggregates are
// unaffected; only the retained Spans list shortens.
func (a *attentionAnalyzer) drainClosed(trim bool) []AttentionSpan {
	fresh := a.spans[a.emitted:]
	if trim {
		fresh = append([]AttentionSpan(nil), fresh...)
		a.spans = a.spans[:0]
		a.emitted = 0
	} else {
		a.emitted = len(a.spans)
	}
	return fresh
}

// finalize closes open runs and reports the per-person stats from the
// running counters (identical to a rescan of every span ever closed).
func (a *attentionAnalyzer) finalize() *AttentionResult {
	for pi := range a.ids {
		a.close(pi, a.last+1)
		a.cur[pi] = -1
	}
	res := &AttentionResult{Spans: a.spans}
	for pi, id := range a.ids {
		st := AttentionStat{
			Person: id, Spans: a.statSpans[pi], LongestFrames: a.statLongest[pi],
		}
		if st.Spans > 0 {
			st.MeanFrames = float64(a.statTotal[pi]) / float64(st.Spans)
		}
		res.Stats = append(res.Stats, st)
	}
	return res
}

// attentionSpanRecord is the span's record schema, shared by the live
// (RunEmit) and end-of-run emission paths so each span is written with
// identical bytes wherever it surfaces.
func attentionSpanRecord(s AttentionSpan) metadata.Record {
	return metadata.Record{
		Kind: metadata.KindEvent, Frame: s.Start, FrameEnd: s.End,
		Time: s.StartTime, Person: s.Person, Other: s.Target,
		Label: "attention-span", Value: float64(s.Frames()),
	}
}

// attentionEmitEvery is the rolling emission cadence in frames.
const attentionEmitEvery = 32

// attentionStage wires the analyzer into the graph as a frame stage
// with an end-of-run record emission. On live/bounded streams the stage
// is a rolling windowed operator: every attentionEmitEvery frames it
// drains the spans closed since the last tick (queueing them as records
// when Live, freeing them when Bounded); each span is emitted exactly
// once across the rolling and final passes.
func attentionStage(b *stageBuild) (*Stage, error) {
	an := newAttentionAnalyzer(b.ids)
	numFrames := b.numFrames
	return &Stage{
		Name:    StageAttention,
		Version: 1,
		Phase:   PhaseFrame,
		Needs:   []ArtifactKey{ArtLookAt},
		Config:  itoa(minAttentionFrames),
		Emit:    attentionEmitEvery,
		RunFrame: func(_ *runEnv, fa *FrameArtifacts) error {
			an.push(fa)
			return nil
		},
		RunEmit: func(env *runEnv, _ *FrameArtifacts) error {
			fresh := an.drainClosed(env.opts.Bounded)
			if env.opts.Live {
				for _, s := range fresh {
					env.queueDerived(attentionSpanRecord(s))
				}
			}
			return nil
		},
		RunFinal: func(env *runEnv) error {
			// finalize closes the still-open runs into an.spans; the
			// prefix already emitted live is skipped, so each span is
			// written exactly once across the rolling and final passes.
			att := an.finalize()
			env.res.Attention = att
			recs := make([]metadata.Record, 0, len(att.Spans)+len(att.Stats))
			for _, s := range an.spans[an.emitted:] {
				recs = append(recs, attentionSpanRecord(s))
			}
			for _, st := range att.Stats {
				if st.Spans == 0 {
					continue
				}
				recs = append(recs, metadata.Record{
					Kind: metadata.KindEvent, Frame: 0, FrameEnd: numFrames,
					Person: st.Person, Other: -1,
					Label: "attention-mean", Value: st.MeanFrames,
				})
			}
			if len(recs) == 0 {
				return nil
			}
			return env.repo.AppendBatch(recs)
		},
	}, nil
}
