package core

// Streaming suite (DESIGN.md §10): RunStream on a finite stream is
// byte-identical to Run — including the online stages — at every worker
// count; cancellation finalizes a partial result; unbounded bounded
// streams hold memory flat; and a tail-cursor follower subscribed while
// the stream ingests sees every record exactly once, in order.
// check.sh runs the identity and follow tests under the race detector.

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gaze"
	"repro/internal/metadata"
	"repro/internal/scene"
)

// onlineStages enables every windowed built-in on top of the default
// graph — the stages whose rolling state the streaming refactor added.
var onlineStages = []string{StageAttention, StageDiningPhase, StageLiveSummary}

// captureStreamResult runs RunStream and captures records + result.
func captureStreamResult(t *testing.T, cfg Config, opts StreamOptions) (runResult, *Result) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunStream(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	var recs []metadata.Record
	res.Repo.Scan(func(r metadata.Record) bool {
		recs = append(recs, r)
		return true
	})
	return runResult{layers: res.Layers, summary: res.Summary, records: recs}, res
}

// TestRunStreamMatchesRun pins the streaming refactor's core guarantee:
// a finite stream with the zero options — including every online
// windowed stage — produces byte-identical records, layers, summary,
// attention spans and decoded phases to Run, sequentially and on the
// worker pool.
func TestRunStreamMatchesRun(t *testing.T) {
	cfg := Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 11},
		Stages:   onlineStages,
	}
	for _, workers := range []int{1, 8} {
		wcfg := cfg
		wcfg.Workers = workers

		p, err := New(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		var wantRecs []metadata.Record
		want.Repo.Scan(func(r metadata.Record) bool {
			wantRecs = append(wantRecs, r)
			return true
		})
		want.Repo.Close()
		if len(wantRecs) == 0 {
			t.Fatal("Run produced no records")
		}

		got, res := captureStreamResult(t, wcfg, StreamOptions{})
		if !reflect.DeepEqual(wantRecs, got.records) {
			t.Errorf("workers=%d: stream records differ from Run (%d vs %d)",
				workers, len(wantRecs), len(got.records))
		}
		if !reflect.DeepEqual(want.Layers, got.layers) {
			t.Errorf("workers=%d: stream layers differ from Run", workers)
		}
		if !reflect.DeepEqual(want.Summary, got.summary) {
			t.Errorf("workers=%d: stream summary differs from Run", workers)
		}
		if !reflect.DeepEqual(want.Attention, res.Attention) {
			t.Errorf("workers=%d: stream attention differs from Run", workers)
		}
		if len(want.Phases) == 0 || !reflect.DeepEqual(want.Phases, res.Phases) {
			t.Errorf("workers=%d: stream phases differ from Run (%v vs %v)",
				workers, want.Phases, res.Phases)
		}
		if res.Interrupted {
			t.Errorf("workers=%d: finite stream reported Interrupted", workers)
		}
	}
}

// TestRunStreamOptionsValidated rejects nonsense streams.
func TestRunStreamOptionsValidated(t *testing.T) {
	p, err := New(Config{Scenario: scene.PrototypeScenario()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunStream(StreamOptions{Frames: -1}); err == nil {
		t.Error("negative Frames accepted")
	}
	if _, err := p.RunStream(StreamOptions{FlushEvery: -1}); err == nil {
		t.Error("negative FlushEvery accepted")
	}
	if _, err := p.RunStream(StreamOptions{Frames: 100000}); err == nil {
		t.Error("stream beyond the scenario accepted without Cycle")
	}
}

// TestRunStreamCancelGraceful cancels mid-stream and requires a
// finalized partial result: Interrupted set, FramesAnalyzed equal to
// what was consumed, derived layers present, no error.
func TestRunStreamCancelGraceful(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := Config{
			Scenario: scene.PrototypeScenario(),
			Mode:     GeometricVision,
			Gaze:     gaze.EstimatorOptions{Seed: 3},
			Stages:   onlineStages,
			Workers:  workers,
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		res, err := p.RunStream(StreamOptions{
			Ctx: ctx,
			Monitor: func(frame int) {
				if frame == 99 {
					cancel()
				}
			},
		})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: cancelled stream errored: %v", workers, err)
		}
		if !res.Interrupted {
			t.Fatalf("workers=%d: Interrupted not set", workers)
		}
		if res.FramesAnalyzed < 100 || res.FramesAnalyzed >= 610 {
			t.Errorf("workers=%d: FramesAnalyzed = %d, want [100, 610)", workers, res.FramesAnalyzed)
		}
		if res.Layers == nil || res.Layers.Frames != res.FramesAnalyzed {
			t.Errorf("workers=%d: partial layers not finalized over consumed frames", workers)
		}
		// The consumed prefix's records were flushed and stay queryable.
		n := 0
		res.Repo.Scan(func(metadata.Record) bool { n++; return true })
		if n == 0 {
			t.Errorf("workers=%d: interrupted stream left no records", workers)
		}
		res.Repo.Close()
	}
}

// TestStreamBoundedMemory is the unbounded-stream gate: cycling the
// scenario to ~24k frames with Bounded set, heap in steady state after
// the early frames must not grow with stream length.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long stream")
	}
	const frames = 24000
	cfg := Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 9},
		Stages:   onlineStages,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heapAt := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early, late uint64
	res, err := p.RunStream(StreamOptions{
		Frames: frames, Cycle: true,
		Bounded: true, discardRaw: true,
		Monitor: func(frame int) {
			switch frame {
			case 8000 - 1:
				early = heapAt()
			case frames - 100:
				late = heapAt()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	if res.FramesAnalyzed != frames {
		t.Fatalf("FramesAnalyzed = %d, want %d", res.FramesAnalyzed, frames)
	}
	if early == 0 || late == 0 {
		t.Fatal("memory probes did not fire")
	}
	const slack = 8 << 20
	if late > early+slack {
		t.Errorf("heap grew %d bytes between frame 8k and 24k (early %d, late %d) — stream is not bounded",
			late-early, early, late)
	}
	// The exact aggregates survive the series trimming.
	if res.Layers.MeanOH() <= 0 {
		t.Error("trimmed stream lost its OH aggregate")
	}
}

// TestStreamFollowExactlyOnceDuringIngest subscribes a tail cursor
// before the stream starts and requires the follower's view — history
// plus CDC feed, consumed while ingest and flushes race it — to be the
// repository's full record sequence, exactly once, in append order.
func TestStreamFollowExactlyOnceDuringIngest(t *testing.T) {
	cfg := Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 17},
		Stages:   onlineStages,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo := metadata.NewMem()
	defer repo.Close()

	// frame >= -1 also matches the context records (Frame −1), so the
	// subscription sees essentially the whole append stream.
	expr, follow, err := metadata.ParseFollow("frame >= -1 FOLLOW")
	if err != nil || !follow {
		t.Fatalf("ParseFollow: %v (follow=%v)", err, follow)
	}
	cur, err := repo.Tail(expr, metadata.TailOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	recCh := make(chan metadata.Record, 1<<15)
	go func() {
		defer close(recCh)
		for {
			rec, err := cur.Next(ctx)
			if err != nil {
				return
			}
			recCh <- rec
		}
	}()

	res, err := p.RunStream(StreamOptions{
		Repo: repo, Live: true, FlushEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The cursor's contract covers the matching subset, so compare
	// against the repository filtered by the same predicate.
	var want []metadata.Record
	repo.Scan(func(r metadata.Record) bool {
		if ok, err := expr.Eval(r); err == nil && ok {
			want = append(want, r)
		}
		return true
	})
	if len(want) == 0 {
		t.Fatal("stream appended no records")
	}
	// Live emission happened: some derived records landed mid-stream.
	liveSeen := 0
	for _, r := range want {
		if r.Label == "live-phase" || r.Label == "live-summary" {
			liveSeen++
		}
	}
	if liveSeen == 0 {
		t.Error("live stream emitted no live- records")
	}

	got := make([]metadata.Record, 0, len(want))
	for len(got) < len(want) {
		select {
		case rec, ok := <-recCh:
			if !ok {
				t.Fatalf("follower terminated early: %v (after %d of %d records)",
					cur.Err(), len(got), len(want))
			}
			got = append(got, rec)
		case <-ctx.Done():
			t.Fatalf("timed out at %d of %d records", len(got), len(want))
		}
	}
	cancel()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("follower view diverges from the repository (%d records)", len(want))
	}
	// No duplicates follow: the feed must now be silent.
	select {
	case rec, ok := <-recCh:
		if ok {
			t.Fatalf("follower delivered an extra record: %v", rec)
		}
	case <-time.After(50 * time.Millisecond):
	}
	_ = res
}
