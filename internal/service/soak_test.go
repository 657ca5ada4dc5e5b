package service_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/metadata"
	"repro/internal/service"
	"repro/internal/vfs"
)

// soakScale returns (clients, records) for the connection-scale soak:
// the full acceptance shape (≥200 concurrent mixed clients, ≥1M
// records) normally, a proportional miniature under -short so the
// default `go test ./...` stays fast.
func soakScale() (ingest, query, follow, totalRecords int) {
	if testing.Short() {
		return 16, 8, 8, 64_000
	}
	return 100, 50, 50, 1_000_000
}

// TestServiceSoak drives hundreds of concurrent ingest/query/follow
// clients through one server over ≥1M records (scaled down under
// -short) and then verifies: every acknowledged record is queryable,
// every follower stream was complete, gap-free and in order, the drain
// completes, and the store passes offline Fsck.
func TestServiceSoak(t *testing.T) {
	nIngest, nQuery, nFollow, totalRecords := soakScale()
	const tenants = 4
	root := t.TempDir()
	ts := newTestServer(t, service.Config{
		Root:         root,
		MaxInflight:  1024,
		AppendRate:   5_000_000, // quota is not under test here
		AppendBurst:  10_000_000,
		MaxFollowers: nFollow + 8,
	})
	// The full shape takes ~1 min plain but 10-15× that under the race
	// detector on a single-core runner; the deadline covers the worst.
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Minute)
	defer cancel()

	perIngest := totalRecords / nIngest
	const batchSize = 2000 // few round trips per client: the soak floor is per-record cost
	var acked atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, nIngest+nQuery+nFollow)

	// Ingest fleet: each client owns a disjoint frame range within its
	// tenant so completeness is checkable per range.
	for i := 0; i < nIngest; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("rig-%d", i%tenants)
			c := ts.client(t, tenant, client.Config{MaxRetries: 6, Backoff: 5 * time.Millisecond})
			base := i * perIngest
			for lo := 0; lo < perIngest; lo += batchSize {
				hi := lo + batchSize
				if hi > perIngest {
					hi = perIngest
				}
				if err := c.Append(ctx, batch(base+lo, base+hi, "soak")); err != nil {
					errCh <- fmt.Errorf("ingest %d: %w", i, err)
					return
				}
				acked.Add(int64(hi - lo))
			}
		}(i)
	}

	// Query fleet: steady mixed reads while ingest runs. This is a
	// connection-scale soak — many live client connections at a
	// realistic per-connection rate — not a query throughput race:
	// unpaced hot-looping readers simply starve the single-core race
	// build of the ingest the soak measures. Each round uses ID order +
	// limit (the executor's streaming limit pushdown stops after the
	// matches) so per-query cost stays flat as the store grows; every
	// 16th round runs frame-ordered over a bounded frame window so the
	// sort path and the §9 zone-map pruning stay exercised under
	// concurrency.
	queryCtx, queryCancel := context.WithCancel(ctx)
	queryPace := 500 * time.Millisecond
	if testing.Short() {
		queryPace = 50 * time.Millisecond
	}
	for i := 0; i < nQuery; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("rig-%d", i%tenants)
			c := ts.client(t, tenant, client.Config{MaxRetries: 6, Backoff: 5 * time.Millisecond})
			for n := 0; queryCtx.Err() == nil; n++ {
				q := "label = 'soak' AND value >= 100"
				if n%16 == 15 {
					lo := (i*7919 + n*997) % (nIngest * perIngest)
					q = fmt.Sprintf("label = 'soak' AND frame >= %d AND frame < %d", lo, lo+2000)
				}
				_, err := c.Query(queryCtx, q, client.QueryOpts{Limit: 20})
				if err != nil && queryCtx.Err() == nil {
					errCh <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				select {
				case <-time.After(queryPace):
				case <-queryCtx.Done():
				}
			}
		}(i)
	}

	// Follow fleet: live subscribers that must each receive their whole
	// window, in order, with no gap and no duplicate, however far they
	// lag. Each follower watches a bounded frame window in the middle of
	// ingest client i's range (client i writes to this follower's tenant
	// because nIngest ≡ 0 mod tenants, and appends its range in frame
	// order) — the window arrives live, mid-soak, or from history if the
	// subscription lands late, but a follower doesn't have to consume its
	// tenant's entire feed: with a per-record flush to every follower,
	// the read side would again starve the ingest under -race.
	for i := 0; i < nFollow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("rig-%d", i%tenants)
			c := ts.client(t, tenant, client.Config{MaxRetries: 6, Backoff: 5 * time.Millisecond})
			lo := i*perIngest + perIngest/2
			w := perIngest / 4
			if w > 5000 {
				w = 5000
			}
			fs, err := c.Follow(ctx, fmt.Sprintf("label = 'soak' AND frame >= %d AND frame < %d", lo, lo+w))
			if err != nil {
				errCh <- fmt.Errorf("follow %d subscribe: %w", i, err)
				return
			}
			defer fs.Close()
			var lastID uint64
			for got := 0; got < w; got++ {
				rec, err := fs.Next()
				if err != nil {
					errCh <- fmt.Errorf("follow %d after %d of %d records: %w", i, got, w, err)
					return
				}
				if rec.Frame != lo+got || rec.ID <= lastID {
					errCh <- fmt.Errorf("follow %d: frame %d (ID %d after %d), want frame %d (gap/reorder/dup)",
						i, rec.Frame, rec.ID, lastID, lo+got)
					return
				}
				lastID = rec.ID
			}
		}(i)
	}

	ingestAndQueriesDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(ingestAndQueriesDone)
	}()
	// Let queries and follows run while ingest completes, then stop
	// the query fleet; each follower ends once its window is complete.
	waitIngested := func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for acked.Load() < int64(nIngest)*int64(perIngest) {
			select {
			case <-ctx.Done():
				t.Fatalf("soak timed out with %d/%d records acked", acked.Load(), totalRecords)
			case err := <-errCh:
				t.Fatal(err)
			case <-tick.C:
			}
		}
	}
	waitIngested()
	queryCancel()
	select {
	case <-ingestAndQueriesDone:
	case <-ctx.Done():
		t.Fatal("fleets did not wind down")
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Completeness: every acked record is queryable, per tenant.
	want := make(map[string]int)
	for i := 0; i < nIngest; i++ {
		want[fmt.Sprintf("rig-%d", i%tenants)] += perIngest
	}
	for tenant, n := range want {
		c := ts.client(t, tenant, client.Config{})
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != n {
			t.Errorf("tenant %s: %d records stored, want %d", tenant, st.Records, n)
		}
	}

	// Drain and verify the stores offline.
	if err := ts.svc.Drain(ctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
	for tenant := range want {
		rep, err := metadata.Fsck(root + "/" + tenant)
		if err != nil {
			t.Fatalf("fsck %s: %v", tenant, err)
		}
		if !rep.Clean() {
			t.Errorf("fsck %s not clean:\n%+v", tenant, rep)
		}
	}
}

// TestServiceSoakUnderFaults runs a smaller mixed soak on a FaultFS
// that starts injecting ENOSPC partway through: the acceptance
// contract is that injected exhaustion surfaces as degraded health and
// 507s — never a wedged tenant (reads keep answering throughout).
func TestServiceSoakUnderFaults(t *testing.T) {
	ffs := vfs.NewFaultFS()
	var failing atomic.Bool
	ffs.Inject = func(n int, op vfs.Op, path string) error {
		if failing.Load() && (op == vfs.OpWrite || op == vfs.OpSync || op == vfs.OpCreate) {
			return syscall.ENOSPC
		}
		return nil
	}
	ts := newTestServer(t, service.Config{
		FS:          ffs,
		MaxInflight: 256,
		AppendRate:  5_000_000,
		AppendBurst: 10_000_000,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const writers = 8
	const readers = 8
	var wg sync.WaitGroup
	var degradedSeen atomic.Int64
	var readFailures atomic.Int64
	stop := make(chan struct{})

	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
			for lo := i * 100_000; ; lo += 100 {
				select {
				case <-stop:
					return
				default:
				}
				err := c.Append(ctx, batch(lo, lo+100, "faulty"))
				switch {
				case err == nil:
				case errors.Is(err, client.ErrDegraded):
					degradedSeen.Add(1)
				default:
					// Anything else (besides a test teardown race) is a
					// wedge/5xx and fails the soak.
					if ctx.Err() == nil {
						t.Errorf("writer %d: %v", i, err)
					}
					return
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := ts.client(t, "rig-1", client.Config{MaxRetries: 2, Backoff: time.Millisecond})
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Query(ctx, "label = 'faulty'", client.QueryOpts{Limit: 10}); err != nil {
					readFailures.Add(1)
					if ctx.Err() == nil {
						t.Errorf("reader %d: %v", i, err)
					}
					return
				}
			}
		}(i)
	}

	time.Sleep(200 * time.Millisecond) // healthy phase
	failing.Store(true)                // pull the disk out
	// Wait until the degradation propagates to every writer.
	deadline := time.Now().Add(30 * time.Second)
	for degradedSeen.Load() < writers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d writers saw the degradation", degradedSeen.Load(), writers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if readFailures.Load() != 0 {
		t.Fatalf("%d read failures during the fault window (tenant wedged?)", readFailures.Load())
	}

	// healthz tells the truth.
	c := ts.client(t, "rig-1", client.Config{})
	rep, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded" {
		t.Fatalf("healthz after ENOSPC = %q, want degraded", rep.Status)
	}
}
