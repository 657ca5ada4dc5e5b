// Package summarize implements DiEvent's video-summarisation component
// (paper §I: "detecting and highlighting the most important scenes,
// shots, and events inside videos; and reducing the time needed for
// analyzing a video by sociologists"). Importance is scored from the
// fused multilayer evidence — eye-contact events, emotion dynamics and
// overall-emotion swings — then the top non-overlapping highlight
// windows form the digest, alongside the Fig. 9 look-at summary and
// dominance analysis.
package summarize

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/layers"
)

// The digest reports the topK best highlight windows of windowLen
// frames (two seconds at 25 fps), at least windowLen frames apart.
const (
	topK      = 5
	windowLen = 50
)

// Highlight is one selected important window.
type Highlight struct {
	// Start, End delimit the window as [Start, End).
	Start, End int
	// Score is the accumulated importance.
	Score float64
	// Reasons lists the evidence kinds that contributed.
	Reasons []string
}

// Summary is the event digest.
type Summary struct {
	// Highlights are the top windows, best first.
	Highlights []Highlight
	// Dominant is the participant ID with the maximal look-at column
	// sum (the paper's dominance rule), -1 when nothing was observed.
	Dominant int
	// DominanceShare is the dominant participant's share of all
	// look-at counts.
	DominanceShare float64
	// Digest is a human-readable report.
	Digest string
}

// ErrNoData is returned when the analysis result is empty.
var ErrNoData = errors.New("summarize: no analysis data")

// Summarize builds the digest from a multilayer result.
func Summarize(res *layers.Result) (*Summary, error) {
	if res == nil || res.Frames == 0 {
		return nil, ErrNoData
	}

	importance, reasons := scoreFrames(res)

	s := &Summary{Dominant: -1}
	s.Highlights = pickWindows(importance, reasons, topK, windowLen, windowLen)

	// Dominance from the raw (unsmoothed) summary, matching Fig. 9.
	cols := res.Summary.ColumnSums()
	total := 0
	bestIdx, bestV := -1, 0
	for j, v := range cols {
		total += v
		if v > bestV {
			bestIdx, bestV = j, v
		}
	}
	if bestIdx >= 0 && total > 0 {
		s.Dominant = res.Summary.IDs[bestIdx]
		s.DominanceShare = float64(bestV) / float64(total)
	}

	s.Digest = digest(res, s)
	return s, nil
}

// scoreFrames accumulates per-frame importance from the multilayer
// evidence.
func scoreFrames(res *layers.Result) ([]float64, []map[string]bool) {
	n := res.Frames
	imp := make([]float64, n)
	why := make([]map[string]bool, n)
	mark := func(f int, w float64, reason string) {
		if f < 0 || f >= n {
			return
		}
		imp[f] += w
		if why[f] == nil {
			why[f] = make(map[string]bool, 2)
		}
		why[f][reason] = true
	}

	// Eye-contact events: weight every covered frame, bonus at onset.
	for _, e := range res.Events {
		for f := e.Start; f < e.End && f < n; f++ {
			mark(f, 1, "eye-contact")
		}
		mark(e.Start, 2, "eye-contact-start")
	}
	// Alerts: strong local spikes.
	for _, a := range res.Alerts {
		w := 2.0
		if a.Kind == layers.AlertNegativeSpike {
			w = 4
		}
		for off := -5; off <= 5; off++ {
			mark(a.Frame+off, w/(1+math.Abs(float64(off))), a.Kind.String())
		}
	}
	// Overall-emotion swings: |ΔOH| between consecutive frames.
	for i := 1; i < len(res.Overall); i++ {
		d := math.Abs(res.Overall[i].OH - res.Overall[i-1].OH)
		if d > 5 {
			mark(res.Overall[i].Index, d/10, "emotion-swing")
		}
	}
	return imp, why
}

// pickWindows selects the k highest-scoring windows of w frames that
// keep at least minGap frames between each other.
func pickWindows(imp []float64, why []map[string]bool, k, w, minGap int) []Highlight {
	n := len(imp)
	if n == 0 {
		return nil
	}
	if w > n {
		w = n
	}
	// Sliding-window sums.
	sums := make([]float64, n-w+1)
	var run float64
	for i := 0; i < w; i++ {
		run += imp[i]
	}
	sums[0] = run
	for i := 1; i < len(sums); i++ {
		run += imp[i+w-1] - imp[i-1]
		sums[i] = run
	}
	type cand struct {
		start int
		score float64
	}
	cands := make([]cand, len(sums))
	for i, s := range sums {
		cands[i] = cand{start: i, score: s}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	var out []Highlight
	for _, c := range cands {
		if len(out) >= k || c.score <= 0 {
			break
		}
		clash := false
		for _, h := range out {
			// Windows must not overlap and must keep minGap spacing.
			if c.start < h.End+minGap && h.Start < c.start+w+minGap {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		reasons := map[string]bool{}
		for f := c.start; f < c.start+w; f++ {
			for r := range why[f] {
				reasons[r] = true
			}
		}
		rs := make([]string, 0, len(reasons))
		for r := range reasons {
			rs = append(rs, r)
		}
		sort.Strings(rs)
		out = append(out, Highlight{Start: c.start, End: c.start + w, Score: c.score, Reasons: rs})
	}
	return out
}

// digest renders the human-readable report.
func digest(res *layers.Result, s *Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Event: %s", res.Context.Occasion)
	if res.Context.Location != "" {
		fmt.Fprintf(&b, " @ %s", res.Context.Location)
	}
	fmt.Fprintf(&b, " — %d participants, %d frames\n",
		len(res.Context.Participants), res.Frames)
	fmt.Fprintf(&b, "Mean overall happiness: %.1f%%  satisfaction: %.1f/100\n",
		res.MeanOH(), res.SatisfactionScore())
	fmt.Fprintf(&b, "Eye-contact events: %d  alerts: %d\n", len(res.Events), len(res.Alerts))
	if s.Dominant >= 0 {
		name := fmt.Sprintf("P%d", s.Dominant+1)
		if p, ok := res.Context.Participant(s.Dominant); ok && p.Name != "" {
			name = p.Name
			if p.Color != "" {
				name += " (" + p.Color + ")"
			}
		}
		fmt.Fprintf(&b, "Dominant participant: %s with %.0f%% of received gaze\n",
			name, s.DominanceShare*100)
	}
	if len(s.Highlights) > 0 {
		b.WriteString("Highlights:\n")
		for i, h := range s.Highlights {
			fmt.Fprintf(&b, "  %d. frames [%d,%d) score %.1f (%s)\n",
				i+1, h.Start, h.End, h.Score, strings.Join(h.Reasons, ", "))
		}
	}
	b.WriteString("Look-at summary (rows look at columns):\n")
	b.WriteString(res.Summary.String())
	return b.String()
}
