package metadata

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func tailRecord(i int, label string) Record {
	return Record{
		Kind:     KindObservation,
		Frame:    i,
		FrameEnd: i + 1,
		Person:   i % 4,
		Other:    -1,
		Label:    label,
		Value:    float64(i),
	}
}

// TestTailCursorHistoryThenLive pins the watermark contract: records
// appended before Tail arrive from the history scan, records appended
// after arrive live, exactly once each and in ID order across the seam.
func TestTailCursorHistoryThenLive(t *testing.T) {
	r := NewMem()
	defer r.Close()
	for i := 0; i < 50; i++ {
		label := "hit"
		if i%2 == 1 {
			label = "miss"
		}
		if _, err := r.Append(tailRecord(i, label)); err != nil {
			t.Fatal(err)
		}
	}
	expr, follow, err := ParseFollow("label = 'hit' FOLLOW")
	if err != nil || !follow {
		t.Fatalf("ParseFollow: follow=%v err=%v", follow, err)
	}
	cur, err := r.Tail(expr, TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 50; i < 100; i++ {
		label := "hit"
		if i%2 == 1 {
			label = "miss"
		}
		if _, err := r.Append(tailRecord(i, label)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	want := 0
	for got := 0; got < 50; got++ {
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("Next #%d: %v", got, err)
		}
		if rec.Frame != want || rec.Label != "hit" {
			t.Fatalf("record #%d = frame %d %q, want frame %d \"hit\"", got, rec.Frame, rec.Label, want)
		}
		want += 2
	}
	// Nothing further is pending: Next must block until cancelled.
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := cur.Next(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drained cursor returned %v, want deadline exceeded", err)
	}
	// A context error is not terminal; the cursor resumes.
	if _, err := r.Append(tailRecord(100, "hit")); err != nil {
		t.Fatal(err)
	}
	rec, err := cur.Next(ctx)
	if err != nil || rec.Frame != 100 {
		t.Fatalf("post-cancel Next = (%v, %v), want frame 100", rec.Frame, err)
	}
}

// TestTailCursorStalledConsumerGetsEverything: a cursor reads the store
// itself, so a consumer that stops reading while far more records are
// appended than any per-subscriber queue would hold — across many
// segment rolls — resumes where it stopped and receives every match
// exactly once, in order, with no error.
func TestTailCursorStalledConsumerGetsEverything(t *testing.T) {
	r, err := Open(t.TempDir(), WithSegmentSize(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cur, err := r.Tail(mustParse(t, "label = 'hit'"), TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	hitOrMiss := func(i int) Record {
		if i%3 == 2 {
			return tailRecord(i, "miss")
		}
		return tailRecord(i, "hit")
	}
	// Reach the live phase, then stall.
	if _, err := r.Append(hitOrMiss(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if rec, err := cur.Next(ctx); err != nil || rec.Frame != 0 {
		t.Fatalf("first live Next = (%d, %v), want frame 0", rec.Frame, err)
	}
	const total = 100*1024 + 5000
	for lo := 1; lo < total; lo += 1000 {
		recs := make([]Record, 0, 1000)
		for i := lo; i < min(lo+1000, total); i++ {
			recs = append(recs, hitOrMiss(i))
		}
		if err := r.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) < 10 {
		t.Fatalf("only %d segments: the stall did not span rolls", len(st.Segments))
	}
	for want := 1; want < total; want++ {
		if want%3 == 2 {
			continue
		}
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("Next(frame %d) after the stall: %v", want, err)
		}
		if rec.Frame != want {
			t.Fatalf("got frame %d, want %d (loss/dup/reorder)", rec.Frame, want)
		}
	}
	idle, cancelIdle := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelIdle()
	if rec, err := cur.Next(idle); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("extra delivery after the backlog: (%d, %v)", rec.Frame, err)
	}
}

// TestTailCursorRepoClose: closing the repository terminates cursors
// with ErrClosed after they drain what was already queued.
func TestTailCursorRepoClose(t *testing.T) {
	r := NewMem()
	expr, err := Parse("label = 'hit'")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r.Tail(expr, TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := r.Append(tailRecord(0, "hit")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rec, err := cur.Next(ctx)
	if err != nil || rec.Frame != 0 {
		t.Fatalf("pre-close record: (%v, %v)", rec.Frame, err)
	}
	if _, err := cur.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed repo cursor returned %v, want ErrClosed", err)
	}
	if _, err := r.Tail(expr, TailOpts{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Tail on closed repo = %v, want ErrClosed", err)
	}
}

// TestTailCursorSurvivesRollAndCompactUnderLoad extends the PR 3/6
// compact-under-load harness to the CDC path: while a writer appends
// through multiple active-segment rolls and a second goroutine drives
// incremental 3-phase Compacts, a tail cursor subscribed before the
// first append must deliver every matching record exactly once, in
// order, with no torn values. Run under -race by check.sh.
func TestTailCursorSurvivesRollAndCompactUnderLoad(t *testing.T) {
	dir := t.TempDir()
	// 4 KiB segments force many rolls over the run.
	r, err := Open(dir, WithSegmentSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const rounds, batch = 40, 25
	const total = rounds * batch
	expr, err := Parse("label = 'happy'")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r.Tail(expr, TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	var wantMatches int
	for i := 0; i < total; i++ {
		if stressRecord(i).Label == "happy" {
			wantMatches++
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := 0; b < rounds; b++ {
			recs := make([]Record, batch)
			for i := range recs {
				recs[i] = stressRecord(b*batch + i)
			}
			if err := r.AppendBatch(recs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := r.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []Record
	for len(got) < wantMatches {
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(got), err)
		}
		got = append(got, rec)
	}
	wg.Wait()

	frame := 0
	var lastID uint64
	for i, rec := range got {
		for stressRecord(frame).Label != "happy" {
			frame++
		}
		if rec.Frame != frame {
			t.Fatalf("match #%d = frame %d, want %d (loss/dup/reorder)", i, rec.Frame, frame)
		}
		checkStressRecord(t, rec)
		if rec.ID <= lastID {
			t.Fatalf("match #%d: ID %d not ascending past %d", i, rec.ID, lastID)
		}
		lastID = rec.ID
		frame++
	}
	// No extra deliveries: the cursor must now be idle.
	idle, cancelIdle := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelIdle()
	if rec, err := cur.Next(idle); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("extra delivery after %d matches: (%+v, %v)", wantMatches, rec, err)
	}
}

// TestIterCloseReleasesWorkers is the goroutine-accounting regression
// test for Iter.Close: abandoning a multi-segment streaming query and
// closing it must deterministically release the scan worker pool.
func TestIterCloseReleasesWorkers(t *testing.T) {
	r := NewMem()
	defer r.Close()
	// > querySegmentSize records so the pool actually spawns workers.
	recs := make([]Record, 3*querySegmentSize)
	for i := range recs {
		recs[i] = stressRecord(i)
	}
	if err := r.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		it, err := r.QueryIter("label = 'happy' OR label = 'sad'", QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.Next(); !ok {
			t.Fatal("no first record")
		}
		// Abandon mid-stream; Close must block until workers exit.
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for its pool synchronously, so no grace loop should be
	// needed; allow a couple of runtime-internal goroutines of slack.
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d after 8 closed queries", before, after)
	}
}

// TestQueryCtxCancel: a cancelled QueryOpts.Ctx stops iteration and
// surfaces the context error via Err.
func TestQueryCtxCancel(t *testing.T) {
	r := NewMem()
	defer r.Close()
	recs := make([]Record, 2*querySegmentSize)
	for i := range recs {
		recs[i] = stressRecord(i)
	}
	if err := r.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	it, err := r.QueryIter("frame >= 0", QueryOpts{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, ok := it.Next(); !ok {
		t.Fatalf("first Next failed: %v", it.Err())
	}
	cancel()
	for i := 0; ; i++ {
		if _, ok := it.Next(); !ok {
			break
		}
		if i > len(recs) {
			t.Fatal("iterator never observed cancellation")
		}
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", it.Err())
	}

	// A context cancelled before the query starts fails fast too.
	it2, err := r.QueryIter("frame >= 0", QueryOpts{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	if _, ok := it2.Next(); ok {
		t.Fatal("pre-cancelled query yielded a record")
	}
	if !errors.Is(it2.Err(), context.Canceled) {
		t.Fatalf("pre-cancelled Err() = %v, want context.Canceled", it2.Err())
	}
}

// TestParseFollowGrammar pins the FOLLOW suffix grammar.
func TestParseFollowGrammar(t *testing.T) {
	cases := []struct {
		q      string
		follow bool
		ok     bool
	}{
		{"label = 'alert'", false, true},
		{"label = 'alert' FOLLOW", true, true},
		{"label = 'alert' follow", true, true},
		{"frame > 10 AND person = 2 FOLLOW", true, true},
		{"label = 'alert' FOLLOW junk", false, false},
		{"FOLLOW", false, false},
	}
	for _, c := range cases {
		expr, follow, err := ParseFollow(c.q)
		if c.ok && (err != nil || expr == nil) {
			t.Errorf("ParseFollow(%q) err = %v", c.q, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseFollow(%q) succeeded, want error", c.q)
			}
			continue
		}
		if follow != c.follow {
			t.Errorf("ParseFollow(%q) follow = %v, want %v", c.q, follow, c.follow)
		}
	}
}

// TestTailManySubscribers: multiple concurrent cursors each see the
// full matching stream independently.
func TestTailManySubscribers(t *testing.T) {
	r := NewMem()
	defer r.Close()
	expr, err := Parse("person = 1")
	if err != nil {
		t.Fatal(err)
	}
	const nSubs, total = 4, 400
	curs := make([]*TailCursor, nSubs)
	for i := range curs {
		c, err := r.Tail(expr, TailOpts{})
		if err != nil {
			t.Fatal(err)
		}
		curs[i] = c
		defer c.Close()
	}
	var consWG sync.WaitGroup
	errCh := make(chan error, nSubs)
	for _, c := range curs {
		consWG.Add(1)
		go func(c *TailCursor) {
			defer consWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// person = 1 is 1-based in the grammar: P1 == Person 0,
			// i.e. frames 0, 4, 8, …
			want := 0
			for n := 0; n < total/4; n++ {
				rec, err := c.Next(ctx)
				if err != nil {
					errCh <- err
					return
				}
				if rec.Frame != want {
					errCh <- fmt.Errorf("subscriber got frame %d, want %d", rec.Frame, want)
					return
				}
				want += 4
			}
		}(c)
	}
	for i := 0; i < total; i++ {
		if _, err := r.Append(stressRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	consWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestTailCursorTryNext: TryNext yields history and live matches like
// Next, returns false without error where Next would park — the cursor
// stays usable — and surfaces a Kill reason after the last match.
func TestTailCursorTryNext(t *testing.T) {
	r := NewMem()
	defer r.Close()
	for i := 0; i < 4; i++ {
		if _, err := r.Append(tailRecord(i, []string{"hit", "miss"}[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	expr, _, err := ParseFollow("label = 'hit' FOLLOW")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r.Tail(expr, TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx := context.Background()
	drain := func() []int {
		var frames []int
		for {
			rec, ok, err := cur.TryNext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return frames
			}
			frames = append(frames, rec.Frame)
		}
	}
	if got := drain(); fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("history burst = %v, want [0 2]", got)
	}
	if got := drain(); len(got) != 0 {
		t.Fatalf("caught-up cursor yielded %v", got)
	}
	recs := []Record{tailRecord(4, "hit"), tailRecord(5, "miss"), tailRecord(6, "hit"), tailRecord(7, "miss")}
	if err := r.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := drain(); fmt.Sprint(got) != "[4 6]" {
		t.Fatalf("live burst = %v, want [4 6]", got)
	}
	if _, err := r.Append(tailRecord(8, "hit")); err != nil {
		t.Fatal(err)
	}
	reason := errors.New("drain")
	cur.Kill(reason)
	if rec, ok, err := cur.TryNext(ctx); !ok || err != nil || rec.Frame != 8 {
		t.Fatalf("after Kill: (%d, %v, %v), want the match appended before it", rec.Frame, ok, err)
	}
	if _, ok, err := cur.TryNext(ctx); ok || !errors.Is(err, reason) {
		t.Fatalf("after the last match: (%v, %v), want the Kill reason", ok, err)
	}
}
