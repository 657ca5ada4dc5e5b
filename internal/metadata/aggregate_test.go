package metadata

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func seedRepo(t *testing.T) *Repository {
	t.Helper()
	r := NewMem()
	// 3 persons × 20 frames of emotion observations with known values,
	// plus two interval events.
	for f := 0; f < 20; f++ {
		for p := 0; p < 3; p++ {
			label := "neutral"
			if p == 0 && f >= 10 {
				label = "happy"
			}
			if _, err := r.Append(Record{
				Kind: KindObservation, Frame: f, FrameEnd: f + 1,
				Time:   time.Duration(f) * 40 * time.Millisecond,
				Person: p, Other: -1, Label: label,
				Value: float64(f) / 10,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ev := range []struct{ a, b, s, e int }{
		{0, 2, 5, 12},
		{1, 2, 14, 18},
	} {
		if _, err := r.Append(Record{
			Kind: KindEvent, Frame: ev.s, FrameEnd: ev.e,
			Person: ev.a, Other: ev.b, Label: "eye-contact",
			Value: float64(ev.e - ev.s),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestCount(t *testing.T) {
	r := seedRepo(t)
	n, err := r.Count("label = 'happy'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("count = %d, want 10", n)
	}
	zero, err := r.Count("label = 'nonexistent'")
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Errorf("count = %d, want 0", zero)
	}
}

func TestAggregateGroupByLabel(t *testing.T) {
	r := seedRepo(t)
	rows, err := r.Aggregate("kind = observation", AggCount, GroupByLabel)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, row := range rows {
		got[row.Key] = row.N
	}
	if got["happy"] != 10 || got["neutral"] != 50 {
		t.Errorf("group counts = %v", got)
	}
	// Sorted keys.
	for i := 1; i < len(rows); i++ {
		if rows[i].Key < rows[i-1].Key {
			t.Error("rows not key-sorted")
		}
	}
}

func TestAggregateAvgPerPerson(t *testing.T) {
	r := seedRepo(t)
	rows, err := r.Aggregate("kind = observation", AggAvg, GroupByPerson)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Every person sees frames 0..19, values f/10 → mean 0.95.
	for _, row := range rows {
		if math.Abs(row.Value-0.95) > 1e-9 {
			t.Errorf("%s avg = %v, want 0.95", row.Key, row.Value)
		}
	}
}

func TestAggregateMinMaxSum(t *testing.T) {
	r := seedRepo(t)
	max, err := r.Aggregate("label = 'eye-contact'", AggMax, GroupNone)
	if err != nil {
		t.Fatal(err)
	}
	if max[0].Value != 7 {
		t.Errorf("max EC duration = %v, want 7", max[0].Value)
	}
	min, err := r.Aggregate("label = 'eye-contact'", AggMin, GroupNone)
	if err != nil {
		t.Fatal(err)
	}
	if min[0].Value != 4 {
		t.Errorf("min EC duration = %v, want 4", min[0].Value)
	}
	sum, err := r.Aggregate("label = 'eye-contact'", AggSum, GroupByPair)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 2 {
		t.Fatalf("pair rows = %v", sum)
	}
	// Pair keys are unordered-normalised.
	if sum[0].Key != "P1-P3" || sum[1].Key != "P2-P3" {
		t.Errorf("pair keys = %v, %v", sum[0].Key, sum[1].Key)
	}
}

func TestAggregateEmpty(t *testing.T) {
	r := seedRepo(t)
	if _, err := r.Aggregate("label = 'none'", AggMin, GroupNone); !errors.Is(err, ErrEmptyAgg) {
		t.Errorf("empty min err = %v", err)
	}
	rows, err := r.Aggregate("label = 'none'", AggSum, GroupNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Value != 0 {
		t.Errorf("empty sum rows = %v", rows)
	}
	grouped, err := r.Aggregate("label = 'none'", AggSum, GroupByLabel)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != 0 {
		t.Errorf("empty grouped rows = %v", grouped)
	}
	if _, err := r.Aggregate("bogus ===", AggCount, GroupNone); !errors.Is(err, ErrBadQuery) {
		t.Error("bad query should fail")
	}
}

func TestAggregateGroupByKind(t *testing.T) {
	r := seedRepo(t)
	rows, err := r.Aggregate("frame >= 0", AggCount, GroupByKind)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, row := range rows {
		got[row.Key] = row.N
	}
	if got["observation"] != 60 || got["event"] != 2 {
		t.Errorf("kind counts = %v", got)
	}
}

func TestFrameEndIntervalQuery(t *testing.T) {
	r := seedRepo(t)
	// Events overlapping frame window [10, 15): interval [s,e) overlaps
	// iff s < 15 AND e > 10.
	got, err := r.Query("kind = event AND frame < 15 AND frameend > 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("overlapping events = %d, want 2 (%v)", len(got), got)
	}
	// Narrower window [18, 20) overlaps nothing... the second event is
	// [14,18) which does NOT overlap (end exclusive).
	got, err = r.Query("kind = event AND frame < 20 AND frameend > 18")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("events past 18 = %v", got)
	}
}

// TestAggregateNumericKeyOrder pins the participant-index sort: with
// ten or more people a lexical sort would slot P10 between P1 and P2,
// and P10-P12 pair keys would likewise shuffle — scenes that size are
// exactly what GroupByPerson/GroupByPair serve.
func TestAggregateNumericKeyOrder(t *testing.T) {
	r := NewMem()
	defer r.Close()
	const persons = 12
	for p := 0; p < persons; p++ {
		if _, err := r.Append(obs(p, p, "crowd", 1)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := r.Aggregate("label = 'crowd'", AggCount, GroupByPerson)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != persons {
		t.Fatalf("rows = %d, want %d", len(rows), persons)
	}
	for i, row := range rows {
		if want := fmt.Sprintf("P%d", i+1); row.Key != want {
			t.Fatalf("row %d key = %s, want %s (numeric order)", i, row.Key, want)
		}
	}
	// Pairs: P1-P2, P1-P11, P3-P4, P10-P12 must come out in index order,
	// not the lexical P1-P11 < P1-P2 < P10-P12 < P3-P4.
	for _, pair := range [][2]int{{0, 1}, {0, 10}, {2, 3}, {9, 11}} {
		if _, err := r.Append(Record{
			Kind: KindEvent, Frame: 1, FrameEnd: 2,
			Person: pair[0], Other: pair[1], Label: "eye-contact", Value: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := r.Aggregate("label = 'eye-contact'", AggCount, GroupByPair)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := []string{"P1-P2", "P1-P11", "P3-P4", "P10-P12"}
	if len(pairs) != len(wantPairs) {
		t.Fatalf("pair rows = %v", pairs)
	}
	for i, row := range pairs {
		if row.Key != wantPairs[i] {
			t.Fatalf("pair row %d = %s, want %s (numeric order)", i, row.Key, wantPairs[i])
		}
	}
}

func TestAggOpStrings(t *testing.T) {
	for _, op := range []AggOp{AggCount, AggSum, AggAvg, AggMin, AggMax, AggOp(99)} {
		if op.String() == "" {
			t.Error("operator should render")
		}
	}
}
