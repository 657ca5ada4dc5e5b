package metadata

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestTailReadOnlyEndsWithSentinel is the regression test for the
// read-only Tail contract: the live phase can never fire on a read-only
// repository (no writer exists in the process), so the cursor must
// terminate with ErrTailEnded once history is exhausted instead of
// blocking forever.
func TestTailReadOnlyEndsWithSentinel(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		label := "hit"
		if i%2 == 1 {
			label = "miss"
		}
		if _, err := w.Append(tailRecord(i, label)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// History must drain in full, in ID order.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for want := 0; want < 20; want += 2 {
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("history Next(frame %d): %v", want, err)
		}
		if rec.Frame != want {
			t.Fatalf("history record frame %d, want %d", rec.Frame, want)
		}
	}
	// Then the sentinel, immediately — not a block until ctx expiry.
	start := time.Now()
	if _, err := cur.Next(ctx); !errors.Is(err, ErrTailEnded) {
		t.Fatalf("post-history Next = %v, want ErrTailEnded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("ErrTailEnded took seconds to surface; cursor blocked")
	}
	// Terminal: sticky across Next, visible via Err, benign for Close.
	if _, err := cur.Next(ctx); !errors.Is(err, ErrTailEnded) {
		t.Fatalf("second post-history Next = %v, want ErrTailEnded", err)
	}
	if !errors.Is(cur.Err(), ErrTailEnded) {
		t.Fatalf("Err() = %v, want ErrTailEnded", cur.Err())
	}
	if cerr := cur.Close(); cerr != nil {
		t.Fatalf("Close after natural end = %v, want nil", cerr)
	}
}

// mustParse compiles a query or fails the test.
func mustParse(t *testing.T, q string) Expr {
	t.Helper()
	expr, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return expr
}

// badEvalExpr evaluates fine on most records but errors on a trigger
// label, driving the cursor's evaluation-failure path.
type badEvalExpr struct{ trigger string }

func (e badEvalExpr) Eval(rec Record) (bool, error) {
	if rec.Label == e.trigger {
		return false, fmt.Errorf("metadata: boom on %q: %w", rec.Label, ErrBadQuery)
	}
	return true, nil
}
func (e badEvalExpr) String() string { return "label != '" + e.trigger + "'" }

// TestTailCloseContract is the table test for the Close/Err/Next
// contracts: Close surfaces prior terminal failures, treats benign ends
// (clean close, ErrTailEnded, repository ErrClosed) as nil, is
// idempotent, and Next after Close reports the terminal state.
func TestTailCloseContract(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		// arrange returns a cursor driven into the desired pre-Close
		// state plus the error Close should return.
		arrange func(t *testing.T) (*TailCursor, error)
		// wantNext is what Next must report after Close.
		wantNext error
	}{
		{
			name: "clean close while live",
			arrange: func(t *testing.T) (*TailCursor, error) {
				r := NewMem()
				t.Cleanup(func() { r.Close() })
				cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
				if err != nil {
					t.Fatal(err)
				}
				return cur, nil
			},
			wantNext: ErrClosed,
		},
		{
			name: "after Kill",
			arrange: func(t *testing.T) (*TailCursor, error) {
				r := NewMem()
				t.Cleanup(func() { r.Close() })
				cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Append(tailRecord(0, "hit")); err != nil {
					t.Fatal(err)
				}
				cur.Kill(errKilled)
				if rec, err := cur.Next(ctx); err != nil || rec.Frame != 0 {
					t.Fatalf("record before Kill: (%d, %v)", rec.Frame, err)
				}
				if _, err := cur.Next(ctx); !errors.Is(err, errKilled) {
					t.Fatalf("drive to Kill reason: %v", err)
				}
				return cur, errKilled
			},
			wantNext: errKilled,
		},
		{
			name: "after evaluation error",
			arrange: func(t *testing.T) (*TailCursor, error) {
				r := NewMem()
				t.Cleanup(func() { r.Close() })
				cur, err := r.Tail(badEvalExpr{trigger: "boom"}, TailOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Append(tailRecord(0, "boom")); err != nil {
					t.Fatal(err)
				}
				if _, err := cur.Next(ctx); err == nil || !errors.Is(err, ErrBadQuery) {
					t.Fatalf("drive to eval error: %v", err)
				}
				return cur, ErrBadQuery
			},
			wantNext: ErrBadQuery,
		},
		{
			name: "after repository close",
			arrange: func(t *testing.T) (*TailCursor, error) {
				r := NewMem()
				cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := cur.Next(ctx); !errors.Is(err, ErrClosed) {
					t.Fatalf("drive to repo-closed: %v", err)
				}
				return cur, nil // benign: not the cursor's fault
			},
			wantNext: ErrClosed,
		},
		{
			name: "after ErrTailEnded (read-only natural end)",
			arrange: func(t *testing.T) (*TailCursor, error) {
				dir := t.TempDir()
				w, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Append(tailRecord(0, "hit")); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				r, err := Open(dir, WithReadOnly())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cur.Next(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := cur.Next(ctx); !errors.Is(err, ErrTailEnded) {
					t.Fatalf("drive to tail end: %v", err)
				}
				return cur, nil // benign: the cursor's io.EOF
			},
			wantNext: ErrTailEnded,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur, wantClose := c.arrange(t)
			got := cur.Close()
			if (wantClose == nil) != (got == nil) || (wantClose != nil && !errors.Is(got, wantClose)) {
				t.Fatalf("Close() = %v, want %v", got, wantClose)
			}
			// Idempotent: the second Close returns the same value.
			if got2 := cur.Close(); (got == nil) != (got2 == nil) || (got != nil && !errors.Is(got2, got)) {
				t.Fatalf("double Close() = %v, first was %v", got2, got)
			}
			// Next after Close is terminal with the documented state.
			if _, err := cur.Next(ctx); !errors.Is(err, c.wantNext) {
				t.Fatalf("Next after Close = %v, want %v", err, c.wantNext)
			}
			// Err stays consistent: a prior terminal failure is never
			// masked by Close; a clean close reads ErrClosed.
			if c.wantNext != nil && !errors.Is(cur.Err(), c.wantNext) {
				t.Fatalf("Err() after Close = %v, want %v", cur.Err(), c.wantNext)
			}
		})
	}
}

// errKilled is the reason the Kill tests hand a cursor.
var errKilled = errors.New("test: cursor killed")

// TestTailKillDrainContract deterministically pins the kill contract: a
// cursor killed at store position n still delivers every matching
// record below n, in order — skipping the non-matching ones between
// them — before surfacing the reason; nothing appended after Kill is
// delivered. A cursor parked on an empty live phase wakes on Kill.
func TestTailKillDrainContract(t *testing.T) {
	r := NewMem()
	defer r.Close()
	cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	appendRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			label := "hit"
			if i%2 == 1 {
				label = "miss"
			}
			if _, err := r.Append(tailRecord(i, label)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRange(0, 8)
	cur.Kill(errKilled)
	cur.Kill(errors.New("a second Kill is ignored"))
	appendRange(8, 12)
	ctx := context.Background()
	for want := 0; want < 8; want += 2 {
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("drain Next(frame %d) = %v; terminal error surfaced before the backlog drained", want, err)
		}
		if rec.Frame != want || rec.Label != "hit" {
			t.Fatalf("drain record frame %d %q, want frame %d \"hit\"", rec.Frame, rec.Label, want)
		}
	}
	// Only now the terminal reason; frames 8 and 10 came after Kill.
	if rec, err := cur.Next(ctx); !errors.Is(err, errKilled) {
		t.Fatalf("post-drain Next = (%d, %v), want errKilled", rec.Frame, err)
	}
	if !errors.Is(cur.Err(), errKilled) {
		t.Fatalf("Err() = %v, want errKilled", cur.Err())
	}
	// And Close reports the reason too: no silent discard.
	if cerr := cur.Close(); !errors.Is(cerr, errKilled) {
		t.Fatalf("Close() = %v, want errKilled", cerr)
	}

	// A parked cursor: Kill from another goroutine wakes it.
	parked, err := r.Tail(mustParse(t, "label = 'none'"), TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		parked.Kill(errKilled)
	}()
	wait, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := parked.Next(wait); !errors.Is(err, errKilled) {
		t.Fatalf("parked cursor after Kill: %v, want errKilled", err)
	}
}

// TestTailKillDrainsFarBehind: Kill after the writer has finished
// delivers every record appended before it, then the reason, even to a
// consumer that is more than 100k records behind.
func TestTailKillDrainsFarBehind(t *testing.T) {
	r := NewMem()
	defer r.Close()
	cur, err := r.Tail(mustParse(t, "frame >= 0"), TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	const total = 100*1024 + 3000
	recs := make([]Record, 0, 1024)
	for lo := 0; lo < total; lo += 1024 {
		recs = recs[:0]
		for i := lo; i < min(lo+1024, total); i++ {
			recs = append(recs, tailRecord(i, "hit"))
		}
		if err := r.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	cur.Kill(errKilled)
	if _, err := r.Append(tailRecord(total, "hit")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for want := 0; want < total; want++ {
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("Next(frame %d) before the reason: %v", want, err)
		}
		if rec.Frame != want {
			t.Fatalf("got frame %d, want %d", rec.Frame, want)
		}
	}
	if rec, err := cur.Next(ctx); !errors.Is(err, errKilled) {
		t.Fatalf("after %d records Next = (%d, %v), want errKilled", total, rec.Frame, err)
	}
}
