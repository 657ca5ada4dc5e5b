package metadata

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func planFixture(t *testing.T) *Repository {
	t.Helper()
	r := NewMem()
	labels := []string{"happy", "sad", "neutral", "eye-contact"}
	for i := 0; i < 400; i++ {
		rec := obs(i, i%5, labels[i%len(labels)], float64(i%7))
		if i%4 == 3 {
			rec.Kind = KindEvent
			rec.Other = (i + 2) % 5
		}
		if _, err := r.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// planCandidates lists the positions the executor would load for p.
func planCandidates(p *queryPlan) []int {
	p.settle()
	var out []int
	for _, r := range p.runs {
		p.candidates(r.lo, r.hi, p.drive(r.lo, r.hi), func(pos int) bool {
			out = append(out, pos)
			return true
		})
	}
	return out
}

func TestPlanUsesIndexIntersection(t *testing.T) {
	r := planFixture(t)
	defer r.Close()
	expr, err := Parse("label = 'eye-contact' AND kind = event AND person = 4 AND frame >= 100")
	if err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	p := r.planLocked(expr, OrderFrame)
	r.mu.RUnlock()
	if len(p.probes) == 0 {
		t.Fatal("sargable query planned as full scan")
	}
	cand := planCandidates(p)
	if len(cand) >= 400 {
		t.Fatalf("no narrowing: %d candidates", len(cand))
	}
	// Candidates must cover all true matches (superset property).
	naive, err := r.NaiveQueryExpr(expr)
	if err != nil {
		t.Fatal(err)
	}
	inCand := map[int]bool{}
	for _, pos := range cand {
		inCand[pos] = true
	}
	for _, rec := range naive {
		if !inCand[int(rec.ID-1)] {
			t.Fatalf("match #%d missing from candidate set", rec.ID)
		}
	}
	// Person equality must survive in the residual (superset index).
	if p.residual == nil || !strings.Contains(p.residual.String(), "person") {
		t.Fatalf("person conjunct dropped from residual: %v", p.residual)
	}
	// Label/kind equalities and frame bounds must be dropped.
	for _, gone := range []string{"label", "kind", "frame"} {
		if p.residual != nil && strings.Contains(p.residual.String(), gone) {
			t.Errorf("%s conjunct kept in residual: %v", gone, p.residual)
		}
	}
}

func TestPlanFrameWindow(t *testing.T) {
	r := planFixture(t)
	defer r.Close()
	for _, q := range []string{
		"frame >= 100 AND frame < 110",
		"frame > 99.5 AND frame <= 109.25",
		"frame = 105",
		"time >= 4 AND time < 4.4",
	} {
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		r.mu.RLock()
		p := r.planLocked(expr, OrderFrame)
		r.mu.RUnlock()
		if !p.ranged {
			t.Errorf("range query %q planned as full scan", q)
			continue
		}
		if cand := planCandidates(p); len(cand) > 20 {
			t.Errorf("range query %q: window too wide (%d)", q, len(cand))
		}
		naive, _ := r.NaiveQueryExpr(expr)
		planned, err := r.QueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(planned) != len(naive) {
			t.Errorf("range query %q: planned %d vs naive %d", q, len(planned), len(naive))
		}
	}
}

// TestRangeIndexOutOfOrderIngest drives the range index's worst case —
// every insert out of order (descending frames), forcing repeated tail
// compactions — and checks range queries stay exact throughout.
func TestRangeIndexOutOfOrderIngest(t *testing.T) {
	r := NewMem()
	defer r.Close()
	const n = 5000
	for i := n - 1; i >= 0; i-- {
		if _, err := r.Append(obs(i, i%4, "happy", float64(i%7))); err != nil {
			t.Fatal(err)
		}
		// Query mid-ingest a few times so a non-empty tail is live.
		if i%1700 == 0 {
			expr, err := Parse("frame >= 100 AND frame < 200")
			if err != nil {
				t.Fatal(err)
			}
			naive, err := r.NaiveQueryExpr(expr)
			if err != nil {
				t.Fatal(err)
			}
			planned, err := r.QueryExpr(expr)
			if err != nil {
				t.Fatal(err)
			}
			if len(planned) != len(naive) {
				t.Fatalf("at %d remaining: planned %d vs naive %d", i, len(planned), len(naive))
			}
		}
	}
	recs, err := r.Query("frame >= 2000 AND frame < 2010")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("descending ingest range query: %d rows, want 10", len(recs))
	}
	// Time bounds exercise the second range index the same way.
	nTime, err := r.Count("time >= 80 AND time < 80.4")
	if err != nil {
		t.Fatal(err)
	}
	if nTime != 10 {
		t.Fatalf("time range query: %d rows, want 10", nTime)
	}
}

func TestPlanEmptyRange(t *testing.T) {
	r := planFixture(t)
	defer r.Close()
	// Contradictory bounds must plan to an empty window, not explode.
	recs, err := r.Query("frame > 100 AND frame < 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("contradictory range returned %d rows", len(recs))
	}
}

func TestExplainOutput(t *testing.T) {
	r := planFixture(t)
	defer r.Close()
	out, err := r.Explain("label = 'happy' AND person = 1 AND frame >= 100",
		QueryOpts{Limit: 10, Project: []string{"id", "frame"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"query:", "plan:", `index label="happy"`, "index person P1",
		"residual: person = 1", "exec:", "order: frame", "limit: 10", "project: id,frame",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	out, err = r.Explain("value > 3", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "full scan") {
		t.Errorf("unsargable query should explain a full scan:\n%s", out)
	}
	if _, err := r.Explain("bogus ===", QueryOpts{}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad query explain err = %v", err)
	}
}

func TestQueryOptsValidation(t *testing.T) {
	r := planFixture(t)
	defer r.Close()
	if _, err := r.QueryIter("frame = 1", QueryOpts{Project: []string{"nope"}}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("unknown projection field err = %v", err)
	}
	if _, err := r.QueryIter("frame = 1", QueryOpts{Order: 99}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("unknown order err = %v", err)
	}
	if _, err := r.QueryIter("frame = 1", QueryOpts{Limit: -1}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("negative limit err = %v", err)
	}
	if _, err := r.QueryIter("bogus", QueryOpts{}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("parse error err = %v", err)
	}
}

func TestProjection(t *testing.T) {
	r := NewMem()
	defer r.Close()
	rec := obs(10, 2, "happy", 0.5)
	rec.Tags = map[string]string{"camera": "C1"}
	if _, err := r.Append(rec); err != nil {
		t.Fatal(err)
	}
	it, err := r.QueryIter("frame = 10", QueryOpts{Project: []string{"label", "value"}})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got, ok := it.Next()
	if !ok {
		t.Fatal("no row")
	}
	if got.Label != "happy" || got.Value != 0.5 {
		t.Errorf("projected fields lost: %+v", got)
	}
	// Unprojected fields reset to absent sentinels, never fake P1/frame 0.
	if got.ID != 0 || got.Frame != -1 || got.Person != -1 || got.Other != -1 || got.Tags != nil {
		t.Errorf("unprojected fields leaked: %+v", got)
	}
}

func TestExprString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"label='happy'", "label = 'happy'"},
		{"kind = event AND label = happy", "kind = 'event' AND label = 'happy'"},
		{"(frame < 5 OR frame >= 15) AND value != 3", "(frame < 5 OR frame >= 15) AND value != 3"},
		{"NOT (frame < 18 AND person = 1)", "NOT (frame < 18 AND person = 1)"},
		{"NOT frame < 18", "NOT frame < 18"},
		{"tag.camera != 'C2'", "tag.camera != 'C2'"},
		{"time >= 1.5 AND frameend <= 60", "time >= 1.5 AND frameend <= 60"},
		{"value = 1e+21", "value = 1e+21"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("String(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestScanCallbackStops pins Scan's early-stop contract alongside its
// new error return.
func TestScanCallbackStops(t *testing.T) {
	r := planFixture(t)
	defer r.Close()
	n := 0
	if err := r.Scan(func(Record) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("scan visited %d records, want 10", n)
	}
}

// TestTimeWindowNanosecondBoundary is the regression test for the lossy
// float time keys: the byTime range index keys on int64 nanoseconds,
// and at large offsets (here ~200 days, where one float64-seconds ulp
// spans several nanoseconds) a window probe converted naively from the
// query's float bound could exclude a record whose float re-evaluation
// accepts it. The widened probes must keep planned results
// byte-identical to the naive interpreter at every boundary operator.
func TestTimeWindowNanosecondBoundary(t *testing.T) {
	r := NewMem()
	defer r.Close()
	base := 200 * 24 * time.Hour // ulp of .Seconds() here ≈ 3.7 ns
	for i := -3; i <= 3; i++ {
		rec := Record{
			Kind: KindObservation, Frame: 1000 + i, FrameEnd: 1001 + i,
			Time:   base + time.Duration(i),
			Person: 0, Other: -1, Label: "t", Value: float64(i),
		}
		if _, err := r.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Fillers far away keep the index non-trivial.
	for i := 0; i < 50; i++ {
		if _, err := r.Append(obs(i, 1, "filler", 1)); err != nil {
			t.Fatal(err)
		}
	}
	v := strconv.FormatFloat(base.Seconds(), 'g', -1, 64)
	for _, op := range []string{">=", ">", "<=", "<", "=", "!="} {
		q := "time " + op + " " + v
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := r.NaiveQueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		planned, err := r.QueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, naive) {
			t.Errorf("query %q: planned %d records, naive %d — boundary mismatch",
				q, len(planned), len(naive))
		}
	}
	// Same property for very large frame numbers, where float64 can no
	// longer represent every integer (2^53 + k collapses pairwise).
	huge := int64(1) << 53
	for i := int64(0); i < 4; i++ {
		rec := Record{
			Kind: KindObservation, Frame: int(huge + i), FrameEnd: int(huge + i + 1),
			Person: 0, Other: -1, Label: "h", Value: 1,
		}
		if _, err := r.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	fv := strconv.FormatFloat(float64(huge+1), 'g', -1, 64)
	for _, op := range []string{">=", "<", "="} {
		q := "frame " + op + " " + fv
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := r.NaiveQueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		planned, err := r.QueryExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, naive) {
			t.Errorf("query %q: planned %d records, naive %d — boundary mismatch",
				q, len(planned), len(naive))
		}
	}
}
