package metadata

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/vfs"
)

// Planner/interpreter equivalence: a seeded, deterministic generator of
// records and query expressions asserts that planned parallel execution
// returns exactly what the naive interpreter returns — across orders,
// limits and projections. Every reference transformation (sort, limit,
// projection) is reimplemented here rather than shared with the engine,
// so a bug in the engine's helpers cannot hide itself.

var equivLabels = []string{"happy", "sad", "neutral", "eye-contact", "shot", "alert", "phase"}

// genRecord draws one valid record; roughly 1 in 10 is a time-invariant
// context record, frames arrive unsorted to exercise range-index
// insertion, and tags/partners appear sporadically.
func genRecord(rng *rand.Rand) Record {
	if rng.Intn(10) == 0 {
		rec := Record{
			Kind: KindContext, Frame: -1, FrameEnd: -1, Person: rng.Intn(7) - 1, Other: -1,
			Label: equivLabels[rng.Intn(len(equivLabels))],
			Value: float64(rng.Intn(9)) / 4,
		}
		if rng.Intn(2) == 0 {
			rec.Tags = map[string]string{"camera": fmt.Sprintf("C%d", rng.Intn(4))}
		}
		return rec
	}
	frame := rng.Intn(1000)
	rec := Record{
		Kind:   []Kind{KindObservation, KindObservation, KindEvent, KindAnnotation}[rng.Intn(4)],
		Frame:  frame,
		Person: rng.Intn(7) - 1,
		Other:  -1,
		Label:  equivLabels[rng.Intn(len(equivLabels))],
		Value:  float64(rng.Intn(200)-100) / 8,
		Time:   time.Duration(frame) * 40 * time.Millisecond,
	}
	switch rng.Intn(3) {
	case 0:
		rec.FrameEnd = frame + 1
	case 1:
		rec.FrameEnd = frame + 1 + rng.Intn(60)
	default:
		rec.FrameEnd = -1
	}
	if rec.Kind == KindEvent && rng.Intn(2) == 0 {
		rec.Other = rng.Intn(6)
	}
	if rng.Intn(4) == 0 {
		rec.Tags = map[string]string{"camera": fmt.Sprintf("C%d", rng.Intn(4))}
	}
	return rec
}

// genQuery builds a random query string with the full grammar: nested
// AND/OR/NOT over every field, operators valid per field, values both in
// and out of the stored distributions (plus fractional frame and person
// values probing the sargable-range float handling).
func genQuery(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(10) {
		case 0:
			return fmt.Sprintf("kind %s %s",
				[]string{"=", "!="}[rng.Intn(2)], kindNames[rng.Intn(int(numKinds))])
		case 1:
			return fmt.Sprintf("label %s '%s'",
				[]string{"=", "!="}[rng.Intn(2)],
				append(equivLabels, "absent")[rng.Intn(len(equivLabels)+1)])
		case 2:
			return fmt.Sprintf("person %s %s", cmpOp(rng),
				[]string{"-1", "0", "1", "2", "3", "7", "1.5"}[rng.Intn(7)])
		case 3:
			return fmt.Sprintf("other %s %d", cmpOp(rng), rng.Intn(8)-1)
		case 4:
			return fmt.Sprintf("frame %s %s", cmpOp(rng),
				[]string{"-1", "0", "250", "250.5", "500", "999", "2000"}[rng.Intn(7)])
		case 5:
			return fmt.Sprintf("frameend %s %d", cmpOp(rng), rng.Intn(1100)-10)
		case 6:
			return fmt.Sprintf("time %s %g", cmpOp(rng), float64(rng.Intn(4500))/100)
		case 7:
			return fmt.Sprintf("value %s %g", cmpOp(rng), float64(rng.Intn(220)-110)/8)
		case 8:
			return fmt.Sprintf("id %s %d", cmpOp(rng), rng.Intn(4000))
		default:
			return fmt.Sprintf("tag.camera %s 'C%d'",
				[]string{"=", "!="}[rng.Intn(2)], rng.Intn(5))
		}
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("NOT (%s)", genQuery(rng, depth-1))
	case 1:
		return fmt.Sprintf("(%s) OR (%s)", genQuery(rng, depth-1), genQuery(rng, depth-1))
	default: // bias toward AND: that is the sargable shape
		return fmt.Sprintf("(%s) AND (%s)", genQuery(rng, depth-1), genQuery(rng, depth-1))
	}
}

func cmpOp(rng *rand.Rand) string {
	return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
}

// refSort orders records the reference way, per Order semantics.
func refSort(recs []Record, order Order) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		switch order {
		case OrderID:
			return a.ID < b.ID
		case OrderFrameDesc:
			if a.Frame != b.Frame {
				return a.Frame > b.Frame
			}
			return a.ID > b.ID
		default:
			if a.Frame != b.Frame {
				return a.Frame < b.Frame
			}
			return a.ID < b.ID
		}
	})
}

// refProject is an independent reimplementation of projection.
func refProject(rec Record, fields []string) Record {
	if len(fields) == 0 {
		return rec
	}
	out := Record{Frame: -1, FrameEnd: -1, Person: -1, Other: -1}
	for _, f := range fields {
		switch f {
		case "id":
			out.ID = rec.ID
		case "kind":
			out.Kind = rec.Kind
		case "frame":
			out.Frame = rec.Frame
		case "frameend":
			out.FrameEnd = rec.FrameEnd
		case "time":
			out.Time = rec.Time
		case "person":
			out.Person = rec.Person
		case "other":
			out.Other = rec.Other
		case "label":
			out.Label = rec.Label
		case "value":
			out.Value = rec.Value
		case "tags":
			out.Tags = rec.Tags
		}
	}
	return out
}

func fillRepo(t *testing.T, r *Repository, rng *rand.Rand, n int) {
	t.Helper()
	batch := make([]Record, 0, 64)
	for i := 0; i < n; i++ {
		batch = append(batch, genRecord(rng))
		if len(batch) == cap(batch) || i == n-1 {
			if err := r.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

func runEquivalence(t *testing.T, r *Repository, seed int64, queries int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orders := []Order{OrderFrame, OrderID, OrderFrameDesc}
	limits := []int{0, 1, 7, 1000000}
	projections := [][]string{nil, {"id", "label"}, {"frame", "person", "value", "tags"}}

	for qi := 0; qi < queries; qi++ {
		q := genQuery(rng, 3)
		expr, err := Parse(q)
		if err != nil {
			t.Fatalf("generated query %q failed to parse: %v", q, err)
		}
		naive, err := r.NaiveQueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		// The collect-all path must be byte-identical to the oracle.
		planned, err := r.QueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, naive) {
			t.Fatalf("QueryExpr diverged from interpreter for %q:\n planned %d rows\n naive   %d rows",
				q, len(planned), len(naive))
		}
		// Every (order, limit, projection) combination over the cursor.
		order := orders[qi%len(orders)]
		checkEarlyStop(t, r, q, expr, order, naive, 1+rng.Intn(5))
		for _, limit := range limits {
			for _, proj := range projections {
				want := append([]Record(nil), naive...)
				refSort(want, order)
				if limit > 0 && limit < len(want) {
					want = want[:limit]
				}
				for i := range want {
					want[i] = refProject(want[i], proj)
				}
				if len(want) == 0 {
					want = nil
				}
				it, err := r.QueryExprIter(expr, QueryOpts{Limit: limit, Order: order, Project: proj})
				if err != nil {
					t.Fatal(err)
				}
				got, err := it.Collect()
				if cerr := it.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					i := 0
					for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
						i++
					}
					t.Fatalf("planned execution diverged for %q (order=%v limit=%d proj=%v):\n got %d rows, want %d; first divergence at row %d",
						q, order, limit, proj, len(got), len(want), i)
				}
			}
		}
	}
}

// checkEarlyStop abandons a cursor after k records, once through Close
// and once through a cancelled context: what was yielded must be the
// reference prefix, and the cursor must end cleanly (Err nil after
// Close, the context's error after a cancel).
func checkEarlyStop(t *testing.T, r *Repository, q string, expr Expr, order Order, naive []Record, k int) {
	t.Helper()
	want := append([]Record(nil), naive...)
	refSort(want, order)
	if k > len(want) {
		k = len(want)
	}
	for _, cancelled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		it, err := r.QueryExprIter(expr, QueryOpts{Order: order, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			rec, ok := it.Next()
			if !ok || !reflect.DeepEqual(rec, want[i]) {
				t.Fatalf("%q (order=%v): record %d before the early stop is (%v, %v), want %v", q, order, i, rec, ok, want[i])
			}
		}
		wantErr := error(nil)
		if cancelled {
			cancel()
			wantErr = context.Canceled
		} else if err := it.Close(); err != nil {
			t.Fatalf("%q: Close after %d records: %v", q, k, err)
		}
		if rec, ok := it.Next(); ok {
			t.Fatalf("%q: Next after the early stop (cancelled=%v) yielded %v", q, cancelled, rec)
		}
		if err := it.Err(); !errors.Is(err, wantErr) {
			t.Fatalf("%q: Err after the early stop (cancelled=%v) = %v, want %v", q, cancelled, err, wantErr)
		}
		it.Close()
		cancel()
	}
}

// zonedRecord is genRecord on a drifting frame axis: record i sits near
// frame i/5, jittered so that neighbours arrive out of order and equal
// frames straddle segment boundaries, with the odd time-invariant
// (frame −1) record in between. Segment zone maps over such a stream
// overlap at their edges and a few start at −1.
func zonedRecord(rng *rand.Rand, i int) Record {
	rec := genRecord(rng)
	if rec.Frame < 0 {
		return rec
	}
	span := rec.FrameEnd - rec.Frame
	rec.Frame = max(0, i/5+rng.Intn(17)-8)
	rec.Time = time.Duration(rec.Frame) * 40 * time.Millisecond
	if rec.FrameEnd >= 0 {
		rec.FrameEnd = rec.Frame + span
	}
	return rec
}

func fillZoned(t *testing.T, r *Repository, rng *rand.Rand, from, n int) {
	t.Helper()
	batch := make([]Record, 0, 64)
	for i := from; i < from+n; i++ {
		batch = append(batch, zonedRecord(rng, i))
		if len(batch) == cap(batch) || i == from+n-1 {
			if err := r.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// TestExecutorEquivalence holds the run-wise executor to the naive
// interpreter on every kind of run list a store can produce: sealed
// segments with sidecars plus a filled active segment (writable), a
// segment whose sidecar is gone (read-only: no statistics, unknown
// bound), a quarantined segment, segments an open filter skipped, and an
// in-memory repository's single run — each under every order, limits 1,
// k, beyond the matches and none, projections, an early Close and a
// context cancelled mid-stream (runEquivalence).
func TestExecutorEquivalence(t *testing.T) {
	seeds, queries, pooled := 4, 24, 6
	if testing.Short() {
		seeds, queries, pooled = 2, 8, 3
	}
	const dir = "/repo"
	var unknown, statless, quarantined, skipped int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(4100 + seed)))
		n := 2000 + rng.Intn(2000)
		segSize := int64(n * 72 / (6 + rng.Intn(15)))
		base := vfs.NewFaultFS()
		w, err := Open(dir, WithFS(base), WithSegmentSize(segSize), WithSyncPolicy(SyncNone))
		if err != nil {
			t.Fatal(err)
		}
		fillZoned(t, w, rng, 0, n)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, err := readManifest(base, dir)
		if err != nil {
			t.Fatal(err)
		}
		sealed := segs[:len(segs)-1]
		everything, err := Parse("id > 0")
		if err != nil {
			t.Fatal(err)
		}
		if len(sealed) < 4 {
			t.Fatalf("seed %d: only %d sealed segments", seed, len(sealed))
		}
		check := func(kind string, r *Repository) {
			t.Helper()
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				runEquivalence(t, r, int64(seed*7+len(kind)), queries)
			})
			r.mu.RLock()
			for _, run := range r.planLocked(everything, OrderFrame).runs {
				if run.bound == unbounded {
					unknown++
				}
			}
			r.mu.RUnlock()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}

		fsys := base.Clone()
		if w, err = Open(dir, WithFS(fsys), WithSegmentSize(segSize), WithSyncPolicy(SyncNone)); err != nil {
			t.Fatal(err)
		}
		fillZoned(t, w, rng, n, 150)
		check("writable", w)

		fsys = base.Clone()
		gone := sealed[rng.Intn(len(sealed))]
		if err := fsys.Remove(filepath.Join(dir, statsFileName(gone.name))); err != nil {
			t.Fatal(err)
		}
		ro, err := Open(dir, WithFS(fsys), WithReadOnly())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ro.segs {
			if s.name == gone.name && s.stats == nil {
				statless++
			}
		}
		check("statless", ro)

		fsys = base.Clone()
		bad := sealed[rng.Intn(len(sealed))]
		rewriteFile(t, fsys, filepath.Join(dir, bad.name), func(data []byte) []byte {
			data[rng.Intn(len(data))] ^= 0x40
			return data
		})
		q, err := Open(dir, WithFS(fsys), WithReadOnly(), WithQuarantine())
		if err != nil {
			t.Fatal(err)
		}
		if h := openedHealth(t, q); len(h.Quarantined) == 1 {
			quarantined++
		}
		check("quarantined", q)

		filter, err := Parse(fmt.Sprintf("frame >= %d AND frame < %d", n/20, n/8))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Open(dir, WithFS(base), WithReadOnly(), WithOpenFilter(filter))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cold.segs {
			if s.skipped {
				skipped++
			}
		}
		check("filtered", cold)

		mem := NewMem()
		fillZoned(t, mem, rand.New(rand.NewSource(int64(4200+seed))), 0, n)
		check("memory", mem)
	}

	// Past querySegmentSize loaded records a cursor hands its runs to the
	// worker pool, and a run holding more candidates than that is split:
	// the same equivalence on stores large enough for both.
	rng := rand.New(rand.NewSource(4300))
	big, err := Open(dir, WithFS(vfs.NewFaultFS()), WithSegmentSize(5*querySegmentSize*72/6), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	fillZoned(t, big, rng, 0, 5*querySegmentSize)
	t.Run("pooled/writable", func(t *testing.T) { runEquivalence(t, big, 1, pooled) })
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	defer mem.Close()
	fillZoned(t, mem, rng, 0, 3*querySegmentSize)
	t.Run("pooled/memory", func(t *testing.T) { runEquivalence(t, mem, 2, pooled) })
	if statless != seeds || quarantined != seeds || skipped == 0 || unknown < 2*seeds {
		t.Fatalf("generator went vacuous: %d stat-less and %d quarantined opens of %d, %d skipped segments, %d runs of unknown bound",
			statless, quarantined, seeds, skipped, unknown)
	}
}

func TestPlannerEquivalenceInMemory(t *testing.T) {
	seeds := []int64{1, 42, 20260725}
	queries := 120
	if testing.Short() {
		seeds = seeds[:1]
		queries = 40
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := NewMem()
			defer r.Close()
			rng := rand.New(rand.NewSource(seed))
			fillRepo(t, r, rng, 3000)
			runEquivalence(t, r, seed*31+7, queries)
		})
	}
}

// TestPlannerEquivalencePersisted covers the replay-built indexes and a
// post-Compact store: the same guarantees must hold for a repository
// recovered from its log.
func TestPlannerEquivalencePersisted(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	fillRepo(t, r, rng, 1500)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 1500 {
		t.Fatalf("recovered %d records, want 1500", r2.Len())
	}
	runEquivalence(t, r2, 100, 40)
	if err := r2.Compact(); err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, r2, 101, 40)
}

// TestIterLimitStopsEarly pins the cursor contract: Next returns false
// exactly at the limit and Err stays nil.
func TestIterLimitStopsEarly(t *testing.T) {
	r := NewMem()
	defer r.Close()
	rng := rand.New(rand.NewSource(5))
	fillRepo(t, r, rng, 500)
	it, err := r.QueryIter("frame >= 0", QueryOpts{Limit: 3, Order: OrderID})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var ids []uint64
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		ids = append(ids, rec.ID)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(ids) != 3 {
		t.Fatalf("limit 3 yielded %d rows", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("OrderID not ascending: %v", ids)
		}
	}
	// Next after exhaustion keeps returning false.
	if _, ok := it.Next(); ok {
		t.Fatal("Next after limit returned a record")
	}
}
