package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary the benchmark can see
// from outside the product. Parent is the span that caused it (0 for a
// root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// "spans off" state of the measured cycles: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates the identifier shared by the spans of one request.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its id (0 when tracing is off).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// reserve allocates a span id before the span's end is known, so
// children recorded on other goroutines can name it as their parent;
// finish fills it in.
func (t *tracer) reserve(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: -1, End: -1})
	return id
}

func (t *tracer) finish(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// finished returns the completed spans (reserved-but-never-finished
// ones, e.g. a frame that produced no record, are dropped).
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Start >= 0 && s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// budget is the decomposition of every root span of one name into the
// self times of the spans beneath it.
type budget struct {
	Root string `json:"root"`
	// Roots is the number of root spans summed.
	Roots int `json:"roots"`
	// WholeNS is the summed duration of the roots.
	WholeNS int64 `json:"whole_ns"`
	// SelfNS maps span name → summed self time inside those roots.
	SelfNS map[string]int64 `json:"self_ns"`
}

// partsNS is the sum of the self times.
func (b budget) partsNS() int64 {
	var sum int64
	for _, v := range b.SelfNS {
		sum += v
	}
	return sum
}

// gap is |parts − whole| / whole: 0 when the spans nest cleanly,
// growing when siblings overlap or a span hangs off the wrong parent.
func (b budget) gap() float64 {
	if b.WholeNS == 0 {
		return 0
	}
	d := b.partsNS() - b.WholeNS
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(b.WholeNS)
}

// selfBudget computes, for every root span called rootName, each
// descendant's self time — its duration minus the part of that
// interval its own descendants cover — with every span clipped to its
// root (a child may outlive the parent that caused it, e.g. an HTTP
// response still in flight after the follower already has the record;
// what happens after the root ended is not part of the root's time).
func selfBudget(spans []span, rootName string) budget {
	children := make(map[int][]int, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	b := budget{Root: rootName, SelfNS: map[string]int64{}}
	var descend func(id int, lo, hi int64, out *[][2]int64)
	descend = func(id int, lo, hi int64, out *[][2]int64) {
		for _, c := range children[id] {
			cs := byID[c]
			clo, chi := max(cs.Start, lo), min(cs.End, hi)
			if chi > clo {
				*out = append(*out, [2]int64{clo, chi})
			}
			descend(c, lo, hi, out)
		}
	}
	var walk func(id int, lo, hi int64)
	walk = func(id int, lo, hi int64) {
		s := byID[id]
		slo, shi := max(s.Start, lo), min(s.End, hi)
		if shi <= slo {
			return
		}
		var cover [][2]int64
		descend(id, slo, shi, &cover)
		b.SelfNS[s.Name] += (shi - slo) - unionLength(cover)
		for _, c := range children[id] {
			walk(c, lo, hi)
		}
	}
	for _, s := range spans {
		if s.Name != rootName {
			continue
		}
		b.Roots++
		b.WholeNS += s.dur()
		walk(s.ID, s.Start, s.End)
	}
	return b
}

// unionLength is the total length covered by the intervals.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// String renders the budget as one line per part, largest first.
func (b budget) String() string {
	names := make([]string, 0, len(b.SelfNS))
	for n := range b.SelfNS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return b.SelfNS[names[i]] > b.SelfNS[names[j]] })
	out := fmt.Sprintf("budget %s: %d roots, mean %.1f us, parts/whole gap %.2f%%\n",
		b.Root, b.Roots, float64(b.WholeNS)/1e3/float64(max(b.Roots, 1)), 100*b.gap())
	for _, n := range names {
		out += fmt.Sprintf("  %-24s %9.1f us/root  %5.1f%%\n", n,
			float64(b.SelfNS[n])/1e3/float64(max(b.Roots, 1)), 100*float64(b.SelfNS[n])/float64(max(b.WholeNS, 1)))
	}
	return out
}

// writeTrace stores the spans and their budgets beside the results.
func writeTrace(path string, env envStamp, spans []span, budgets []budget) error {
	data, err := json.Marshal(struct {
		Env     envStamp `json:"env"`
		Budgets []budget `json:"budgets"`
		Spans   []span   `json:"spans"`
	}{env, budgets, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
