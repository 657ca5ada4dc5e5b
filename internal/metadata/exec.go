package metadata

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
)

// Lazy execution (DESIGN.md §4): a queryPlan is a list of runs — position
// ranges, one per surviving store segment, each with a conservative bound
// on the merge keys inside it. The Iter evaluates runs on demand, in
// bound order, and yields its merge head only once every unevaluated
// run's bound lies strictly beyond the head's key. A consumer that stops
// calling Next — limit reached, Close, context cancelled — leaves the
// remaining runs untouched; a consumer that drains gets every run, the
// worker pool evaluating ahead of the merge.

// Order selects the result ordering of a planned query.
type Order uint8

const (
	// OrderFrame sorts by (Frame, ID) ascending — Query's order, with
	// time-invariant (frame −1) records first.
	OrderFrame Order = iota
	// OrderID yields append (ID) order.
	OrderID
	// OrderFrameDesc sorts by (Frame, ID) descending — latest first.
	OrderFrameDesc

	numOrders
)

// String names the order.
func (o Order) String() string {
	switch o {
	case OrderFrame:
		return "frame"
	case OrderID:
		return "id"
	case OrderFrameDesc:
		return "frame-desc"
	}
	return fmt.Sprintf("order(%d)", uint8(o))
}

// QueryOpts tunes planned query execution.
type QueryOpts struct {
	// Limit caps the number of records yielded; 0 means unlimited.
	Limit int
	// Order selects the result ordering (default OrderFrame).
	Order Order
	// Project names the record fields to retain ("id", "kind", "frame",
	// "frameend", "time", "person", "other", "label", "value", "tags");
	// nil keeps full records. Unprojected fields are zeroed to their
	// absent sentinels (−1 for frame/person fields).
	Project []string
	// Ctx, when non-nil, cancels the query: runs being evaluated stop at
	// their next cancellation check and Next reports false with Err
	// returning the context's error. nil means not cancellable.
	Ctx context.Context
}

func (o QueryOpts) validate() error {
	if o.Order >= numOrders {
		return fmt.Errorf("metadata: unknown order %d: %w", o.Order, ErrBadQuery)
	}
	if o.Limit < 0 {
		return fmt.Errorf("metadata: negative limit %d: %w", o.Limit, ErrBadQuery)
	}
	return nil
}

// --- projection ---

type projMask uint16

const (
	projID projMask = 1 << iota
	projKind
	projFrame
	projFrameEnd
	projTime
	projPerson
	projOther
	projLabel
	projValue
	projTags
)

var projFields = map[string]projMask{
	"id": projID, "kind": projKind, "frame": projFrame,
	"frameend": projFrameEnd, "time": projTime, "person": projPerson,
	"other": projOther, "label": projLabel, "value": projValue,
	"tags": projTags,
}

// projMaskOf compiles a projection field list (0 = keep everything).
func projMaskOf(fields []string) (projMask, error) {
	var m projMask
	for _, f := range fields {
		bit, ok := projFields[strings.ToLower(f)]
		if !ok {
			return 0, fmt.Errorf("metadata: unknown projection field %q: %w", f, ErrBadQuery)
		}
		m |= bit
	}
	return m, nil
}

// projectRecord keeps only the masked fields; the rest reset to absent
// sentinels so a projected record never fabricates P1 or frame 0.
func projectRecord(rec Record, m projMask) Record {
	if m == 0 {
		return rec
	}
	out := Record{Frame: -1, FrameEnd: -1, Person: -1, Other: -1}
	if m&projID != 0 {
		out.ID = rec.ID
	}
	if m&projKind != 0 {
		out.Kind = rec.Kind
	}
	if m&projFrame != 0 {
		out.Frame = rec.Frame
	}
	if m&projFrameEnd != 0 {
		out.FrameEnd = rec.FrameEnd
	}
	if m&projTime != 0 {
		out.Time = rec.Time
	}
	if m&projPerson != 0 {
		out.Person = rec.Person
	}
	if m&projOther != 0 {
		out.Other = rec.Other
	}
	if m&projLabel != 0 {
		out.Label = rec.Label
	}
	if m&projValue != 0 {
		out.Value = rec.Value
	}
	if m&projTags != 0 {
		out.Tags = rec.Tags
	}
	return out
}

// match is one matched position under its merge key. Every order merges
// ascending by (key, tie): (frame, position) for OrderFrame, (position,
// position) for OrderID, (−frame, −position) for OrderFrameDesc. A run's
// bound is a lower bound on the keys of the matches inside it.
type match struct{ key, tie int64 }

func matchOf(o Order, frame, pos int) match {
	switch o {
	case OrderID:
		return match{int64(pos), int64(pos)}
	case OrderFrameDesc:
		return match{-int64(frame), -int64(pos)}
	}
	return match{int64(frame), int64(pos)}
}

func (a match) compare(b match) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.tie, b.tie)
}

// querySegmentSize is the number of candidate positions one evaluation
// covers: a run holding more is split into parts of this size.
const querySegmentSize = 8192

// scanAfter is the number of loaded records past which a cursor counts
// as a scan and its parts go to the worker pool, which also evaluates
// one part per worker ahead of the merge. Below it a part is evaluated
// inline — no goroutine, nothing speculative — so a point query never
// pays for a run it did not need, and the look-ahead a scan wastes when
// its consumer stops early is small beside what the scan already spent.
const scanAfter = 4 * querySegmentSize

// part is a run — or a querySegmentSize-candidate piece of one — handed
// to evaluation: a position range, optionally narrowed by posting lists.
type part struct {
	run
	drive []int   // queryPlan.drive(lo, hi)
	out   []match // matches in merge order; out[at:] is still to be yielded
	at    int
	err   error
	done  chan struct{} // closed once out and err are final; nil if evaluated inline
}

// --- iterator ---

// Iter streams the results of a planned query. It is a single-consumer
// cursor: Next/Err/Close must be called from one goroutine, but many
// Iters may run concurrently with appends and compaction (each executes
// over an immutable snapshot taken at creation). Work is done as Next
// asks for it, so an Eval error in a run the consumer never reached is
// never reported. Close releases the worker pool early; abandoning an
// Iter without Close leaks no resources once the few parts its workers
// were evaluating ahead finish.
type Iter struct {
	p       *queryPlan
	limit   int
	mask    projMask
	order   Order
	ctx     context.Context // nil when the query is not cancellable
	workers int

	// runs are the plan's runs not yet handed to evaluation, in evaluation
	// order: ascending bound, so the unbounded ones first. parts are the
	// ones handed over, in the same order: parts[:merged] are on the heap
	// or spent, parts[merged:started] are with the pool.
	runs    []run
	parts   []*part
	merged  int
	started int
	cancel  atomic.Bool
	// evaluated and loaded count the parts evaluated and the records
	// they loaded; loaded also tells a scan from a point query (scanAfter).
	evaluated, loaded atomic.Int64

	heap    []*part // min-heap by each part's next match
	begun   bool
	err     error
	yielded int
	closed  bool
}

func newIter(p *queryPlan, opts QueryOpts, mask projMask) *Iter {
	return &Iter{
		p: p, limit: opts.Limit, mask: mask, order: opts.Order, ctx: opts.Ctx,
		workers: runtime.GOMAXPROCS(0),
	}
}

// begin orders the runs for evaluation. Deferred to the first Next so
// that creating a cursor — Tail does it under the write lock — costs
// nothing beyond the plan.
func (it *Iter) begin() {
	it.begun = true
	it.p.settle()
	it.runs = it.p.runs
	slices.SortStableFunc(it.runs, func(a, b run) int { return cmp.Compare(a.bound, b.bound) })
}

// expand hands the next run to evaluation, split into parts of at most
// querySegmentSize candidates. A run none of whose positions is in the
// plan's shortest posting list adds no part. In OrderID a part's own
// first position bounds it, so even one huge run is consumed lazily.
func (it *Iter) expand() {
	r := it.runs[0]
	it.runs = it.runs[1:]
	add := func(lo, hi int, drive []int) {
		pt := &part{run: r, drive: drive}
		pt.lo, pt.hi = lo, hi
		if it.order == OrderID {
			pt.bound = int64(lo)
		}
		it.parts = append(it.parts, pt)
	}
	if len(it.p.probes) == 0 {
		for lo := r.lo; lo < r.hi; lo += querySegmentSize {
			add(lo, min(lo+querySegmentSize, r.hi), nil)
		}
		return
	}
	for d := it.p.drive(r.lo, r.hi); len(d) > 0; {
		k := min(len(d), querySegmentSize)
		add(d[0], d[k-1]+1, d[:k])
		d = d[k:]
	}
}

// eval scans pt's candidates, applying the plan's bound filters and
// residual predicate, and leaves its matches sorted for the merge.
func (it *Iter) eval(pt *part) {
	p, n := it.p, 0
	p.candidates(pt.lo, pt.hi, pt.drive, func(pos int) bool {
		if n&1023 == 0 {
			if it.cancel.Load() {
				return false
			}
			if it.ctx != nil {
				if pt.err = it.ctx.Err(); pt.err != nil {
					return false
				}
			}
		}
		n++
		rec := p.recs.at(pos)
		if !p.cj.boundsOK(rec) {
			return true
		}
		if p.residual != nil {
			ok, err := p.residual.Eval(*rec)
			if err != nil {
				pt.err = err
				return false
			}
			if !ok {
				return true
			}
		}
		if pt.out == nil {
			pt.out = make([]match, 0, 16) // a point query's few matches: one allocation
		}
		pt.out = append(pt.out, matchOf(it.order, rec.Frame, pos))
		return true
	})
	it.evaluated.Add(1)
	it.loaded.Add(int64(n))
	// Candidate positions ascend, so OrderID parts are born sorted.
	if it.order != OrderID {
		slices.SortFunc(pt.out, match.compare)
	}
}

// frontier returns the unevaluated run that comes first in evaluation
// order (nil when none is left): the one whose bound decides whether
// the merge head may be yielded.
func (it *Iter) frontier() *run {
	switch {
	case it.merged < len(it.parts):
		return &it.parts[it.merged].run
	case len(it.runs) > 0:
		return &it.runs[0]
	}
	return nil
}

// mergeNext evaluates the frontier (or waits for the pool to) and puts
// its matches on the heap. A run that is a single part, with no scan
// behind it (scanAfter), is evaluated inline. Otherwise the pool gets
// the frontier and one part per worker ahead of it.
func (it *Iter) mergeNext() {
	if it.merged == len(it.parts) {
		if it.expand(); it.merged == len(it.parts) {
			return
		}
	}
	pt := it.parts[it.merged]
	if it.started == it.merged && len(it.parts) == it.merged+1 && it.loaded.Load() < scanAfter {
		it.eval(pt)
		it.started++
	} else {
		for len(it.parts) <= it.merged+it.workers && len(it.runs) > 0 {
			it.expand()
		}
		for ; it.started < min(len(it.parts), it.merged+1+it.workers); it.started++ {
			ahead := it.parts[it.started]
			ahead.done = make(chan struct{})
			go func() {
				defer close(ahead.done)
				it.eval(ahead)
			}()
		}
		<-pt.done
	}
	it.parts[it.merged] = nil
	it.merged++
	if pt.err != nil {
		it.fail(pt.err)
		return
	}
	if len(pt.out) == 0 {
		return
	}
	it.heap = append(it.heap, pt)
	for i := len(it.heap) - 1; i > 0; {
		up := (i - 1) / 2
		if !it.heapLess(i, up) {
			break
		}
		it.heap[i], it.heap[up] = it.heap[up], it.heap[i]
		i = up
	}
}

// fail ends the query with err once the pool has drained.
func (it *Iter) fail(err error) {
	it.stopPool()
	it.err = err
}

// stopPool cancels the parts being evaluated ahead and waits for them.
func (it *Iter) stopPool() {
	it.cancel.Store(true)
	for _, pt := range it.parts[it.merged:it.started] {
		<-pt.done
	}
	it.merged = it.started
}

func (it *Iter) heapLess(i, j int) bool {
	a, b := it.heap[i], it.heap[j]
	return a.out[a.at].compare(b.out[b.at]) < 0
}

func (it *Iter) siftDown(i int) {
	n := len(it.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && it.heapLess(l, min) {
			min = l
		}
		if r < n && it.heapLess(r, min) {
			min = r
		}
		if min == i {
			return
		}
		it.heap[i], it.heap[min] = it.heap[min], it.heap[i]
		i = min
	}
}

// Next yields the next record in the requested order, with the
// projection applied. It reports false when the results are exhausted,
// the Limit is reached, an evaluation error occurred (see Err), or the
// iterator was closed.
func (it *Iter) Next() (Record, bool) {
	if it.closed || it.err != nil || (it.limit > 0 && it.yielded >= it.limit) {
		return Record{}, false
	}
	if it.ctx != nil {
		if err := it.ctx.Err(); err != nil {
			it.fail(err)
			return Record{}, false
		}
	}
	if !it.begun {
		it.begin()
	}
	// The head is final once every unevaluated run is bounded strictly
	// beyond it: a run bounded at the head's own key may hold that key at
	// a smaller position, and an unbounded run may hold anything.
	for f := it.frontier(); f != nil && (len(it.heap) == 0 || f.bound <= it.heap[0].out[it.heap[0].at].key); f = it.frontier() {
		if it.mergeNext(); it.err != nil {
			return Record{}, false
		}
	}
	if len(it.heap) == 0 {
		return Record{}, false
	}
	pt := it.heap[0]
	pos := pt.out[pt.at].tie
	if it.order == OrderFrameDesc {
		pos = -pos
	}
	if pt.at++; pt.at == len(pt.out) {
		last := len(it.heap) - 1
		it.heap[0] = it.heap[last]
		it.heap = it.heap[:last]
	}
	it.siftDown(0)
	it.yielded++
	return projectRecord(*it.p.recs.at(int(pos)), it.mask), true
}

// Err returns the first evaluation error, if any. It is meaningful after
// Next has returned false (or after Close).
func (it *Iter) Err() error { return it.err }

// Close cancels the parts being evaluated ahead and waits for the worker
// pool to drain. Idempotent; returns Err().
func (it *Iter) Close() error {
	if !it.closed {
		it.closed = true
		it.stopPool()
	}
	return it.err
}

// Collect drains the iterator into a slice: exactly sized for an
// unlimited cursor, which needs every run anyway; grown from a small
// one for a limited cursor, which stays lazy.
func (it *Iter) Collect() ([]Record, error) {
	n := min(it.limit, 256)
	if it.limit == 0 {
		n = it.remaining()
	}
	var out []Record
	if n > 0 {
		out = make([]Record, 0, n)
	}
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	if it.err != nil {
		return nil, it.err
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// remaining evaluates every run still unevaluated and counts the
// records an unlimited Next will still yield (0 on error/close).
func (it *Iter) remaining() int {
	if it.closed || it.err != nil {
		return 0
	}
	if !it.begun {
		it.begin()
	}
	for it.frontier() != nil {
		if it.mergeNext(); it.err != nil {
			return 0
		}
	}
	n := 0
	for _, pt := range it.heap {
		n += len(pt.out) - pt.at
	}
	return n
}
