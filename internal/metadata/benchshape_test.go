package metadata

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The store the archive_serve workload queries, rebuilt here so the
// planner's cost on it can be asserted and measured without the
// benchmark module: a frame-ordered history over 16 participants (one
// record in 63 an eye-contact event, rare bursts of alerts, the rest
// emotion observations) sealed into 64 segments with sidecars, then —
// through a writable reopen — what a benchmark cycle appends: a live
// stream that opens with a marker, forwards a time-invariant record and
// closes with a second marker back at the stream's first frame (the two
// out-of-order keys), and after it an in-order ingest stream a million
// frames further on.

const (
	shapePersons = 16
	shapeStride  = 1_000_000
)

var shapeLabels = [...]string{"happy", "neutral", "sad"}

func shapeRecord(i, frame int, rng *rand.Rand) Record {
	rec := Record{
		Kind: KindObservation, Frame: frame, FrameEnd: frame + 1,
		Time:   time.Duration(frame) * 40 * time.Millisecond,
		Person: i % shapePersons, Other: -1,
		Label: shapeLabels[rng.Intn(len(shapeLabels))],
		Value: float64(rng.Intn(1000)) / 1000,
	}
	if i%63 == 62 {
		rec.Kind, rec.Label = KindEvent, "eye-contact"
		rec.Other = (rec.Person + 1 + rng.Intn(shapePersons-1)) % shapePersons
		rec.FrameEnd = frame + 12
	}
	return rec
}

// shapedStore writes history records, then the live stream's few and
// appends in-order ingest records behind its stragglers. It returns the
// writable repository and the first frame past the history.
func shapedStore(tb testing.TB, history, appends int) (*Repository, int) {
	tb.Helper()
	dir := tb.TempDir()
	segSize := int64(history) * 66 / 64
	r, err := Open(dir, WithSyncPolicy(SyncNone), WithSegmentSize(segSize))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([]Record, 0, 8192)
	flush := func() {
		if err := r.AppendBatch(batch); err != nil {
			tb.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < history; i++ {
		rec := shapeRecord(i, i/shapePersons, rng)
		if (i/8192)%32 == 3 && i%512 == 17 { // bursts of 16 in one stretch out of 32
			rec.Kind, rec.Label, rec.Other, rec.FrameEnd = KindEvent, "alert", -1, rec.Frame+1
		}
		if batch = append(batch, rec); len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	if r, err = Open(dir, WithSyncPolicy(SyncNone), WithSegmentSize(segSize)); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	frames := (history + shapePersons - 1) / shapePersons
	live := frames + shapeStride
	marker := obs(live, 0, "marker", 0)
	batch = append(batch, marker)
	for i := 0; i < 64; i++ {
		batch = append(batch, shapeRecord(i, live+i/shapePersons, rng))
	}
	batch = append(batch, Record{Kind: KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1, Label: "rig", Value: 1},
		marker)
	flush()
	for i := 0; i < appends; i++ {
		if batch = append(batch, shapeRecord(i, frames+2*shapeStride+i/shapePersons, rng)); len(batch) == 500 {
			flush()
		}
	}
	flush()
	return r, frames
}

// shapeQueries are the benchmark's point shapes (limit 100) and its
// scan shape (limit 50) against a shaped store.
func shapeQueries(frames int) []struct {
	name, q string
	limit   int
} {
	return []struct {
		name, q string
		limit   int
	}{
		{"contact", fmt.Sprintf("label = 'eye-contact' AND person = 7 AND frame >= %d", frames/3), 100},
		{"window", fmt.Sprintf("frame >= %d AND frame < %d", frames/2, frames/2+100), 100},
		{"rare", "label = 'alert'", 100},
		{"scan", "label = 'happy' AND value >= 0.5", 50},
	}
}

// TestShapedQueriesStayLazy asserts the executor's fast path is the one
// taken on that store: a limited cursor pays for what it returns — a
// handful of runs and a few hundred records, whatever the history holds
// — while an unlimited one still gets every run, and both agree with
// the naive interpreter.
func TestShapedQueriesStayLazy(t *testing.T) {
	history, appends := 1_000_000, 75_000
	if testing.Short() {
		history, appends = 200_000, 15_000
	}
	r, frames := shapedStore(t, history, appends)
	for _, sq := range shapeQueries(frames) {
		expr, err := Parse(sq.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.NaiveQueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if sq.name == "contact" {
			sq.limit = sq.limit * history / 1_000_000 // as many runs' worth of matches on the short history
		}
		for _, limit := range []int{0, sq.limit} {
			it, err := r.QueryExprIter(expr, QueryOpts{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			runs := len(it.p.runs)
			got, err := it.Collect()
			it.Close()
			if err != nil {
				t.Fatal(err)
			}
			if limit > 0 && limit < len(want) {
				want = want[:limit]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s limit %d: %d records, naive %d", sq.name, limit, len(got), len(want))
			}
			evaluated, loaded := int(it.evaluated.Load()), int(it.loaded.Load())
			t.Logf("%s limit %d: %d of %d runs evaluated, %d records loaded for %d returned", sq.name, limit, evaluated, runs, loaded, len(got))
			switch {
			case limit == 0:
				if sq.name == "scan" && evaluated < runs {
					t.Errorf("scan without a limit evaluated %d of %d runs", evaluated, runs)
				}
			case sq.name == "contact":
				if loaded >= 500 || 4*evaluated >= runs {
					t.Errorf("contact: %d records loaded (want < 500), %d of %d runs evaluated (want < ¼)", loaded, evaluated, runs)
				}
			case sq.name == "window":
				if loaded >= 2000 || evaluated > 3 {
					t.Errorf("window: %d records loaded (want < 2000: the window and a two-record tail), %d runs evaluated (want ≤ 3)", loaded, evaluated)
				}
			case sq.name == "scan":
				if evaluated > 3 {
					t.Errorf("scan: %d of %d runs evaluated for %d records, want ≤ 3", evaluated, runs, limit)
				}
			}
		}
	}
}

// BenchmarkShapedQueries times those four at the metadata layer, on the
// 1M-record history with 75k appends behind the straggler.
func BenchmarkShapedQueries(b *testing.B) {
	r, frames := shapedStore(b, 1_000_000, 75_000)
	for _, sq := range shapeQueries(frames) {
		expr, err := Parse(sq.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sq.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it, err := r.QueryExprIter(expr, QueryOpts{Limit: sq.limit})
				if err != nil {
					b.Fatal(err)
				}
				recs, err := it.Collect()
				it.Close()
				if err != nil || len(recs) == 0 {
					b.Fatalf("%d records, %v", len(recs), err)
				}
			}
		})
	}
}
