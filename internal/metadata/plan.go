package metadata

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Query planning (DESIGN.md §4): a compiled Expr is decomposed into
// sargable conjuncts — label/kind/person equalities and frame/time range
// bounds pulled off the top-level AND chain — plus a residual predicate.
// The equalities probe the secondary indexes and are intersected; range
// bounds either carve a window out of a sorted index (when no equality
// narrowed the search) or ride along as cheap per-record filters. The
// resulting candidate set is a superset of the true matches, and the
// executor re-checks bounds and residual on every candidate, so planned
// results are byte-identical to the naive interpreter's.

// bound is one side of a numeric range constraint.
type bound struct {
	val  float64
	incl bool
	set  bool
}

// tightenLo narrows a lower bound (keep the larger / stricter one).
func (b *bound) tightenLo(v float64, incl bool) {
	if !b.set || v > b.val || (v == b.val && b.incl && !incl) {
		b.val, b.incl, b.set = v, incl, true
	}
}

// tightenHi narrows an upper bound (keep the smaller / stricter one).
func (b *bound) tightenHi(v float64, incl bool) {
	if !b.set || v < b.val || (v == b.val && b.incl && !incl) {
		b.val, b.incl, b.set = v, incl, true
	}
}

func (b bound) okLo(x float64) bool {
	if !b.set {
		return true
	}
	if b.incl {
		return x >= b.val
	}
	return x > b.val
}

func (b bound) okHi(x float64) bool {
	if !b.set {
		return true
	}
	if b.incl {
		return x <= b.val
	}
	return x < b.val
}

// conjuncts is the sargable decomposition of a query expression.
type conjuncts struct {
	labels           []string
	kinds            []Kind
	persons          []int // 0-based IDs usable as byPerson probes
	frameLo, frameHi bound
	timeLo, timeHi   bound
	residual         []Expr // conjuncts the indexes cannot enforce
}

// analyze flattens the top-level AND chain of e into conjuncts. OR and
// NOT subtrees are opaque (their matches may fall outside any index
// bucket) and land in the residual wholesale.
func analyze(e Expr) conjuncts {
	var c conjuncts
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case andExpr:
			walk(v.l)
			walk(v.r)
		case cmpExpr:
			if !c.absorb(v) {
				c.residual = append(c.residual, v)
			}
		default:
			c.residual = append(c.residual, e)
		}
	}
	walk(e)
	return c
}

// absorb records what the indexes can enforce about one comparison and
// reports whether they enforce it *exactly* (true = the conjunct can be
// dropped from the residual). Person probes are supersets — byPerson
// also indexes eye-contact partners — so person equalities stay in the
// residual even when probed.
func (c *conjuncts) absorb(v cmpExpr) bool {
	switch v.field {
	case "label":
		if v.op == "=" {
			c.labels = append(c.labels, v.str)
			return true
		}
	case "kind":
		if v.op == "=" {
			if k, err := ParseKind(v.str); err == nil {
				c.kinds = append(c.kinds, k)
				return true
			}
		}
	case "person":
		// Queries are 1-based; only integral IDs ≥ 1 have index buckets.
		if v.op == "=" && v.num == math.Trunc(v.num) && v.num >= 1 && v.num <= 1e9 {
			c.persons = append(c.persons, int(v.num)-1)
		}
		return false
	case "frame":
		return absorbRange(&c.frameLo, &c.frameHi, v.op, v.num)
	case "time":
		return absorbRange(&c.timeLo, &c.timeHi, v.op, v.num)
	}
	return false
}

func absorbRange(lo, hi *bound, op string, v float64) bool {
	switch op {
	case "=":
		lo.tightenLo(v, true)
		hi.tightenHi(v, true)
	case ">":
		lo.tightenLo(v, false)
	case ">=":
		lo.tightenLo(v, true)
	case "<":
		hi.tightenHi(v, false)
	case "<=":
		hi.tightenHi(v, true)
	default: // != is not a range
		return false
	}
	return true
}

// boundsOK applies the combined frame/time range checks to one record,
// using the exact same float comparisons as cmpExpr.Eval.
func (c *conjuncts) boundsOK(rec *Record) bool {
	if c.frameLo.set || c.frameHi.set {
		f := float64(rec.Frame)
		if !c.frameLo.okLo(f) || !c.frameHi.okHi(f) {
			return false
		}
	}
	if c.timeLo.set || c.timeHi.set {
		s := rec.Time.Seconds()
		if !c.timeLo.okLo(s) || !c.timeHi.okHi(s) {
			return false
		}
	}
	return true
}

// conjoin rebuilds an AND chain from residual conjuncts (nil when empty).
func conjoin(list []Expr) Expr {
	if len(list) == 0 {
		return nil
	}
	e := list[0]
	for _, next := range list[1:] {
		e = andExpr{e, next}
	}
	return e
}

func rangeString(name string, lo, hi bound) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(" ∈ ")
	if lo.set {
		if lo.incl {
			b.WriteByte('[')
		} else {
			b.WriteByte('(')
		}
		fmt.Fprintf(&b, "%g", lo.val)
	} else {
		b.WriteString("(-∞")
	}
	b.WriteString(", ")
	if hi.set {
		fmt.Fprintf(&b, "%g", hi.val)
		if hi.incl {
			b.WriteByte(']')
		} else {
			b.WriteByte(')')
		}
	} else {
		b.WriteString("+∞)")
	}
	return b.String()
}

// --- plan construction ---

// queryPlan is an executable plan over an immutable snapshot of the
// store: the posting lists every match must appear in and the runs to
// look for them in. Nothing is materialised under the repository lock.
// The snapshot's chunks and the posting lists are append-only, so the
// slice headers captured here keep reading the same values after the
// lock is released; the one slice that is rewritten in place, a range
// index's tail, is copied (it holds only true out-of-order arrivals).
type queryPlan struct {
	recs     snap // snapshot; positions index into this
	cj       conjuncts
	residual Expr
	// probes are the equality posting lists, shortest first (stable).
	probes []probe
	// A plan with no equality but a frame or time bound reads the
	// narrower sorted-index window instead: win is that window (ordered by
	// key, not position), tail the index's unsorted tail. settle turns the
	// two into the plan's one position-ordered probe, outside the lock.
	ranged, byTime bool
	win, tail      []int
	// runs are the position ranges to evaluate, ascending: one per store
	// segment that holds records and that the statistics do not exclude
	// (DESIGN.md §9), a single one for an in-memory repository.
	runs []run
	// What statistics pruning did, for Explain.
	pruned, considered, excluded int
}

// probe is one posting list of a plan. src numbers the equality it
// came from, counting through the plan's labels, kinds, then persons.
type probe struct {
	src  int
	list []int
}

// run is the executor's unit of work: the store positions [lo, hi) and a
// bound no merge key inside them falls below (see matchOf) — what lets a
// cursor leave a run unevaluated. unbounded when nothing is known.
type run struct {
	lo, hi int
	bound  int64
}

const unbounded = math.MinInt64

// planLocked builds a plan for expr, its runs bounded for order. Caller
// holds at least a read lock.
func (r *Repository) planLocked(expr Expr, order Order) *queryPlan {
	cj := analyze(expr)
	p := &queryPlan{recs: r.store.snapshot(), cj: cj, residual: conjoin(cj.residual)}
	r.planRunsLocked(p, expr, order)

	if n := len(cj.labels) + len(cj.kinds) + len(cj.persons); n > 0 {
		p.probes = make([]probe, 0, n)
	}
	for _, l := range cj.labels {
		p.probes = append(p.probes, probe{len(p.probes), r.byLabel[l]})
	}
	for _, k := range cj.kinds {
		p.probes = append(p.probes, probe{len(p.probes), r.byKind[k]})
	}
	for _, pid := range cj.persons {
		p.probes = append(p.probes, probe{len(p.probes), r.byPerson[pid]})
	}
	switch {
	case len(p.probes) > 0:
		// Equality probes: the executor intersects them run by run,
		// shortest first. Range bounds ride along as per-record filters.
		slices.SortStableFunc(p.probes, func(a, b probe) int { return len(a.list) - len(b.list) })
	case cj.frameLo.set || cj.frameHi.set || cj.timeLo.set || cj.timeHi.set:
		// No equality probe: carve the narrower sorted-index window. The
		// index's unsorted tail (out-of-order inserts, bounded) rides
		// along wholesale — the executor re-checks bounds anyway.
		// Float query bounds convert to widened integer key bounds (see
		// keyRange), so the window is a superset of the float-exact
		// matches; the executor's bound re-check restores exactness.
		fLoK, fHiK := keyRange(cj.frameLo, cj.frameHi, 1)
		fLo, fHi := window(r.byFrame.sorted, r.frameKeyFn, fLoK, fHiK)
		fN := fHi - fLo + len(r.byFrame.tail)
		tLoK, tHiK := keyRange(cj.timeLo, cj.timeHi, 1e9)
		tLo, tHi := window(r.byTime.sorted, r.timeKeyFn, tLoK, tHiK)
		tN := tHi - tLo + len(r.byTime.tail)
		p.ranged = true
		p.byTime = (cj.timeLo.set || cj.timeHi.set) &&
			(!(cj.frameLo.set || cj.frameHi.set) || tN < fN)
		if p.byTime {
			p.win, p.tail = r.byTime.sorted[tLo:tHi], slices.Clone(r.byTime.tail)
		} else {
			p.win, p.tail = r.byFrame.sorted[fLo:fHi], slices.Clone(r.byFrame.tail)
		}
	}
	return p
}

// settle gives a range plan its probe: the index window and tail in
// position (== ID) order. It runs outside the repository lock, before
// the plan's candidates are first enumerated.
func (p *queryPlan) settle() {
	if !p.ranged || p.probes != nil {
		return
	}
	cand := make([]int, 0, len(p.win)+len(p.tail))
	cand = append(append(cand, p.win...), p.tail...)
	sort.Ints(cand)
	p.probes = []probe{{list: cand}}
}

// drive narrows the plan's shortest posting list to [lo, hi): the
// positions a run's candidates are drawn from. nil when the plan has no
// posting list and every position is a candidate.
func (p *queryPlan) drive(lo, hi int) []int {
	if len(p.probes) == 0 {
		return nil
	}
	d := p.probes[0].list
	d = d[sort.SearchInts(d, lo):]
	return d[:sort.SearchInts(d, hi)]
}

// candidates calls fn, in ascending order, with every position of
// [lo, hi) that appears in all of the plan's posting lists — every
// position when it has none — until fn returns false. d is drive(lo, hi).
// The longer lists are only ever sought forward from d's first entry, so
// postings outside the run are never walked.
func (p *queryPlan) candidates(lo, hi int, d []int, fn func(pos int) bool) {
	if len(p.probes) == 0 {
		for pos := lo; pos < hi && fn(pos); pos++ {
		}
		return
	}
	if len(d) == 0 {
		return
	}
	type cursor struct {
		rest   []int
		gallop bool
	}
	var buf [4]cursor
	others := buf[:0]
	for _, pr := range p.probes[1:] {
		others = append(others, cursor{
			rest:   pr.list[sort.SearchInts(pr.list, d[0]):],
			gallop: len(pr.list) >= 8*len(p.probes[0].list),
		})
	}
next:
	for _, pos := range d {
		for i := range others {
			c := &others[i]
			c.rest = c.rest[seek(c.rest, pos, c.gallop):]
			if len(c.rest) == 0 {
				return // this list is spent: nothing further intersects
			}
			if c.rest[0] != pos {
				continue next
			}
		}
		if !fn(pos) {
			return
		}
	}
}

// seek returns the index of the first entry of ascending list that is
// ≥ pos: a linear walk between lists of similar length, a gallop
// (doubling steps, then a binary search of the last step) when list is
// much the longer one, so an intersection costs about its shorter side.
func seek(list []int, pos int, gallop bool) int {
	if !gallop {
		i := 0
		for i < len(list) && list[i] < pos {
			i++
		}
		return i
	}
	if len(list) == 0 || list[0] >= pos {
		return 0
	}
	lo, step := 0, 1 // list[lo] < pos
	for lo+step < len(list) && list[lo+step] < pos {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(list))
	return lo + 1 + sort.SearchInts(list[lo+1:hi], pos)
}

// pruneBranches decomposes e into the conjunct sets of its top-level OR
// branches. A record matching e must match some branch, and a record
// matching a branch satisfies every conjunct that branch absorbed — so
// a segment whose statistics exclude *every* branch can hold no match.
// Anything that is not a top-level OR is a single branch (NOT subtrees
// and nested ORs under AND stay opaque inside their branch's residual,
// where they cannot weaken the absorbed conjuncts).
func pruneBranches(e Expr) []conjuncts {
	if v, ok := e.(orExpr); ok {
		return append(pruneBranches(v.l), pruneBranches(v.r)...)
	}
	return []conjuncts{analyze(e)}
}

// prunable reports whether a branch carries any conjunct the statistics
// block can check. A branch with none can never be excluded.
func prunable(cj *conjuncts) bool {
	return len(cj.labels) > 0 || len(cj.kinds) > 0 || len(cj.persons) > 0 ||
		cj.frameLo.set || cj.frameHi.set || cj.timeLo.set || cj.timeHi.set
}

// excludedByAll reports whether the statistics exclude every branch.
func excludedByAll(s *segStats, branches []conjuncts) bool {
	for i := range branches {
		if !s.exclude(&branches[i]) {
			return false
		}
	}
	return true
}

// planRunsLocked lists p's runs. A sealed segment whose statistics
// block excludes every top-level OR branch of expr contributes none:
// exclusion is conservative (widened zone bounds, no-false-negative
// blooms, exact kind counts) and the executor still re-checks bounds and
// residual on every candidate of the surviving runs, so results stay
// byte-identical to the naive oracle — the same superset-then-recheck
// discipline as keyRange. The zone map that could not exclude a segment
// then bounds its run's merge keys. Quarantined and open-filter-skipped
// segments cover zero-width ranges and yield no run; the active segment
// has no final statistics, so it is never pruned and it is bounded only
// where the position alone bounds it (OrderID). Caller holds at
// least a read lock.
func (r *Repository) planRunsLocked(p *queryPlan, expr Expr, order Order) {
	n := r.store.n
	if len(r.segs) == 0 {
		if n > 0 {
			p.runs = []run{newRun(0, n, nil, order)}
		}
		return
	}
	var branches []conjuncts
	if _, ok := expr.(orExpr); ok {
		branches = pruneBranches(expr)
	} else {
		branches = []conjuncts{p.cj}
	}
	for i := range branches {
		if !prunable(&branches[i]) {
			branches = nil // this branch can never be excluded
			break
		}
	}
	p.runs = make([]run, 0, len(r.segs))
	for i := range r.segs {
		sm := &r.segs[i]
		lo, hi, stats := sm.first, n, (*segStats)(nil)
		if i+1 < len(r.segs) {
			hi, stats = r.segs[i+1].first, sm.stats
		}
		if hi <= lo {
			continue
		}
		if stats != nil && branches != nil {
			p.considered++
			if excludedByAll(stats, branches) {
				p.pruned++
				p.excluded += hi - lo
				continue
			}
		}
		p.runs = append(p.runs, newRun(lo, hi, stats, order))
	}
}

// newRun bounds the merge keys (see matchOf) of positions [lo, hi),
// whose statistics are stats (nil when there are none).
func newRun(lo, hi int, stats *segStats, order Order) run {
	switch {
	case order == OrderID:
		return run{lo, hi, int64(lo)}
	case stats == nil:
		return run{lo, hi, unbounded}
	case order == OrderFrameDesc:
		return run{lo, hi, -stats.maxFrame}
	}
	return run{lo, hi, stats.minFrame}
}

// keyRange converts float query bounds to inclusive int64 key bounds,
// widened so the index window never excludes a record the executor's
// exact float re-check would accept. The range indexes key on exact
// integers (frame index, time in *nanoseconds* — scale maps query units
// to key units), while query predicates evaluate in float64, where
// nanosecond distinctions collapse at large offsets (the ulp of 10^18
// is ~128); a naive conversion could therefore place the boundary a few
// keys too tight. Widening by a generous relative slack (~4500 ulps,
// still only ~1 ms of extra window per 11 days of timestamp) keeps the
// window a strict superset, and the executor's boundsOK re-check makes
// results byte-identical to the naive interpreter.
func keyRange(lo, hi bound, scale float64) (loK, hiK int64) {
	loK, hiK = math.MinInt64, math.MaxInt64
	if lo.set {
		loK = widenDown(lo.val * scale)
	}
	if hi.set {
		hiK = widenUp(hi.val * scale)
	}
	return loK, hiK
}

// widenDown returns a conservative integer lower bound below x.
func widenDown(x float64) int64 {
	f := math.Floor(x - slackFor(x))
	if f <= float64(math.MinInt64) {
		return math.MinInt64
	}
	if f >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(f)
}

// widenUp returns a conservative integer upper bound above x.
func widenUp(x float64) int64 {
	c := math.Ceil(x + slackFor(x))
	if c >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	if c <= float64(math.MinInt64) {
		return math.MinInt64
	}
	return int64(c)
}

// slackFor bounds the rounding error of the unit conversion and of
// float key comparisons: ~4500 ulps of x, at least 1.
func slackFor(x float64) float64 {
	return math.Abs(x)*1e-12 + 1
}

// window locates the half-open index range [lo, hi) of a sorted
// position index whose keys fall within the inclusive [loK, hiK] key
// bounds. Keys are ascending, so both predicates are monotone.
func window(idx []int, key func(int) int64, loK, hiK int64) (int, int) {
	n := len(idx)
	loI := 0
	if loK != math.MinInt64 {
		loI = sort.Search(n, func(i int) bool { return key(idx[i]) >= loK })
	}
	hiI := n
	if hiK != math.MaxInt64 {
		hiI = sort.Search(n, func(i int) bool { return key(idx[i]) > hiK })
	}
	if hiI < loI {
		hiI = loI
	}
	return loI, hiI
}

// Explain parses q, plans it, and renders the plan without executing it
// — the REPL's EXPLAIN mode. opts contributes the order/limit/projection
// and execution-layout lines. The text, and the candidate counts in it,
// are worked out here, from the plan's fields: a query pays for neither.
func (r *Repository) Explain(q string, opts QueryOpts) (string, error) {
	expr, err := Parse(q)
	if err != nil {
		return "", err
	}
	if _, err := projMaskOf(opts.Project); err != nil {
		return "", err
	}
	if err := opts.validate(); err != nil {
		return "", err
	}
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return "", ErrClosed
	}
	p := r.planLocked(expr, opts.Order)
	r.mu.RUnlock()

	count := func(lo, hi int) (n int) {
		p.candidates(lo, hi, p.drive(lo, hi), func(int) bool { n++; return true })
		return n
	}
	cj := &p.cj
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\nplan:\n", expr)
	for _, pr := range p.probes {
		switch i := pr.src; {
		case i < len(cj.labels):
			fmt.Fprintf(&b, "  index label=%q", cj.labels[i])
		case i < len(cj.labels)+len(cj.kinds):
			fmt.Fprintf(&b, "  index kind=%v", cj.kinds[i-len(cj.labels)])
		default:
			fmt.Fprintf(&b, "  index person P%d (superset: includes partners)", cj.persons[i-len(cj.labels)-len(cj.kinds)]+1)
		}
		fmt.Fprintf(&b, ": %d positions\n", len(pr.list))
	}
	if len(p.probes) > 1 {
		fmt.Fprintf(&b, "  intersect: %d candidates\n", count(0, p.recs.n))
	}
	if p.ranged {
		name, lo, hi := "frame", cj.frameLo, cj.frameHi
		if p.byTime {
			name, lo, hi = "time", cj.timeLo, cj.timeHi
		}
		fmt.Fprintf(&b, "  range %s via %s index: %d positions (+%d unsorted tail)\n",
			rangeString(name, lo, hi), name, len(p.win), len(p.tail))
		p.settle()
	}
	n, known, stretches := 0, 0, 0
	for i, run := range p.runs {
		n += count(run.lo, run.hi)
		if run.bound != unbounded {
			known++
		}
		if i == 0 || p.runs[i-1].hi != run.lo {
			stretches++
		}
	}
	if p.pruned > 0 {
		fmt.Fprintf(&b, "  stats: pruned %d of %d sealed segment(s), %d positions excluded\n",
			p.pruned, p.considered, p.excluded)
	}
	switch {
	case len(p.probes) > 0:
		// Bounds are always re-checked by the executor, whatever narrowed
		// the candidates.
		if cj.frameLo.set || cj.frameHi.set {
			fmt.Fprintf(&b, "  filter %s\n", rangeString("frame", cj.frameLo, cj.frameHi))
		}
		if cj.timeLo.set || cj.timeHi.set {
			fmt.Fprintf(&b, "  filter %s\n", rangeString("time", cj.timeLo, cj.timeHi))
		}
	case p.pruned > 0:
		fmt.Fprintf(&b, "  scan %d of %d records in %d run(s)\n", n, p.recs.n, stretches)
	default:
		fmt.Fprintf(&b, "  full scan: %d records\n", p.recs.n)
	}
	if p.residual != nil {
		fmt.Fprintf(&b, "  residual: %s\n", p.residual)
	} else {
		b.WriteString("  residual: none\n")
	}
	fmt.Fprintf(&b, "  exec: %d of %d records, %d run(s), %d with a known bound, up to %d worker(s)\n",
		n, p.recs.n, len(p.runs), known, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  order: %v", opts.Order)
	if opts.Limit > 0 {
		fmt.Fprintf(&b, ", limit: %d", opts.Limit)
	}
	if len(opts.Project) > 0 {
		fmt.Fprintf(&b, ", project: %s", strings.Join(opts.Project, ","))
	}
	b.WriteByte('\n')
	return b.String(), nil
}
