package metadata

import (
	"fmt"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/vfs"
)

// The crash-consistency matrix: run a representative workload
// (appends, rolls/seals, manifest swaps, compactions) on a FaultFS,
// snapshot the filesystem before *every* counted operation, then for
// each snapshot simulate a power cut (with and without a torn tail)
// and reopen, asserting the recovery invariants:
//
//  1. the recovered records are a byte-identical prefix of the oracle
//     (append order, IDs, payloads — nothing reordered or mutated);
//  2. records sealed at snapshot time are never lost;
//  3. under SyncAlways every acknowledged record survives;
//  4. the reopened store is fully writable and a post-crash append is
//     itself durable across another reopen.
//
// Invariant "the manifest is consistent" is implicit: any torn or
// contradictory manifest fails Open, which the matrix treats as a
// failure at that point.

// crashPoint is one snapshot of the filesystem just before counted
// operation n, tagged with what the store had acknowledged by then.
type crashPoint struct {
	n        int
	op       vfs.Op
	path     string
	snap     *vfs.FaultFS
	acked    int // records acknowledged (Append returned) before op n
	sealedLB int // lower bound on records sealed before op n
}

// crashWorkload drives appends with small segments (forcing rolls and
// seals) and two compactions, recording a crashPoint per counted op.
// Returns the points and the oracle (every acknowledged record, in
// order).
func crashWorkload(t *testing.T, policy SyncPolicy) ([]crashPoint, []Record) {
	t.Helper()
	fsys := vfs.NewFaultFS()
	var points []crashPoint
	acked, sealedLB := 0, 0
	fsys.OnOp = func(n int, op vfs.Op, path string, snap *vfs.FaultFS) {
		points = append(points, crashPoint{n: n, op: op, path: path, snap: snap, acked: acked, sealedLB: sealedLB})
	}
	r, err := Open("repo", WithFS(fsys), WithSegmentSize(300), WithSyncPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	var oracle []Record
	for i := 0; i < 120; i++ {
		rec := obs(i, i%3, "crash", 1)
		id, err := r.Append(rec)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		rec.ID = id
		oracle = append(oracle, rec)
		acked = len(oracle)
		st, err := r.Stats()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range st.Segments {
			if s.Sealed {
				n += s.Records
			}
		}
		sealedLB = n
		if i == 50 || i == 100 {
			if err := r.Compact(); err != nil {
				t.Fatalf("compact at %d: %v", i, err)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	fsys.OnOp = nil
	if len(points) == 0 {
		t.Fatal("workload produced no fault points")
	}
	return points, oracle
}

func TestCrashConsistencyMatrix(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncOnSeal} {
		name := map[SyncPolicy]string{SyncAlways: "SyncAlways", SyncOnSeal: "SyncOnSeal"}[policy]
		t.Run(name, func(t *testing.T) {
			points, oracle := crashWorkload(t, policy)
			for _, torn := range []int{0, 3} {
				for _, pt := range points {
					ctx := fmt.Sprintf("op %d (%s %s) torn=%d", pt.n, pt.op, pt.path, torn)
					world := pt.snap.Clone()
					world.Crash(torn)

					r, err := Open("repo", WithFS(world), WithSegmentSize(300), WithSyncPolicy(policy))
					if err != nil {
						t.Fatalf("%s: reopen after crash: %v", ctx, err)
					}
					got := scanAll(t, r)
					if len(got) > len(oracle) {
						t.Fatalf("%s: recovered %d records, more than the %d ever acknowledged", ctx, len(got), len(oracle))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], oracle[i]) {
							t.Fatalf("%s: recovered record %d = %+v, oracle has %+v", ctx, i, got[i], oracle[i])
						}
					}
					if len(got) < pt.sealedLB {
						t.Fatalf("%s: recovered %d records, fewer than the %d sealed before the crash", ctx, len(got), pt.sealedLB)
					}
					if policy == SyncAlways && len(got) < pt.acked {
						t.Fatalf("%s: recovered %d records, fewer than the %d acknowledged under SyncAlways", ctx, len(got), pt.acked)
					}

					// The survivor is a real store: an append lands and is
					// durable across another reopen.
					probe := obs(9999, 0, "probe", 1)
					id, err := r.Append(probe)
					if err != nil {
						t.Fatalf("%s: post-crash append: %v", ctx, err)
					}
					if err := r.Close(); err != nil {
						t.Fatalf("%s: post-crash close: %v", ctx, err)
					}
					r2, err := Open("repo", WithFS(world), WithSegmentSize(300), WithSyncPolicy(policy))
					if err != nil {
						t.Fatalf("%s: second reopen: %v", ctx, err)
					}
					if got2 := scanAll(t, r2); len(got2) != len(got)+1 || got2[len(got2)-1].ID != id {
						t.Fatalf("%s: post-crash append not durable: %d records, last %+v",
							ctx, len(got2), got2[len(got2)-1])
					}
					if err := r2.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestTransientFaultMatrix re-runs a workload once per counted
// operation with exactly that operation failing (a transient I/O
// error, not a crash): the store must stay open, a single retry of a
// rejected append must succeed, and the final reopen must agree with
// memory exactly — no duplicated and no lost records, whichever
// operation faulted.
func TestTransientFaultMatrix(t *testing.T) {
	// Baseline: count the ops the workload performs.
	base := vfs.NewFaultFS()
	runTransientWorkload(t, base, 0)
	total := base.Ops()
	if total == 0 {
		t.Fatal("baseline workload performed no counted ops")
	}

	for n := 1; n <= total; n++ {
		fsys := vfs.NewFaultFS()
		runTransientWorkload(t, fsys, n)
	}
}

// runTransientWorkload appends 60 records (retrying once on a rejected
// append) with one compaction, then verifies reopen == memory. failAt
// = 0 runs clean; otherwise counted op failAt fails once with ENOSPC.
func runTransientWorkload(t *testing.T, fsys *vfs.FaultFS, failAt int) {
	t.Helper()
	ctx := fmt.Sprintf("failAt=%d", failAt)
	if failAt > 0 {
		fsys.FailOp(failAt, syscall.ENOSPC)
	}
	// The fault may land inside Open itself; Open must then fail cleanly
	// (lease released, directory consistent) and a retry must succeed.
	r, err := Open("repo", WithFS(fsys), WithSegmentSize(300), WithSyncPolicy(SyncAlways))
	if err != nil {
		if r, err = Open("repo", WithFS(fsys), WithSegmentSize(300), WithSyncPolicy(SyncAlways)); err != nil {
			t.Fatalf("%s: open failed twice: %v", ctx, err)
		}
	}
	var oracle []Record
	for i := 0; i < 60; i++ {
		rec := obs(i, i%3, "transient", 1)
		id, err := r.Append(rec)
		if err != nil && id == 0 {
			// Rejected (nothing acknowledged): one retry after a
			// transient fault must succeed.
			if id, err = r.Append(rec); err != nil && id == 0 {
				t.Fatalf("%s: append %d failed twice: %v", ctx, i, err)
			}
		}
		// id != 0 with err != nil is an acknowledged record whose
		// durability flush failed — it is in the store and must not be
		// retried (that would duplicate it); the next append repairs.
		rec.ID = id
		oracle = append(oracle, rec)
		if i == 30 {
			// A transient fault may fail this compaction; that must not
			// harm the store (later appends and the final check prove it).
			_ = r.Compact()
		}
	}
	if err := r.Sync(); err != nil {
		// Sync after the faulted op repairs; a second attempt must work.
		if err := r.Sync(); err != nil {
			t.Fatalf("%s: sync failed twice: %v", ctx, err)
		}
	}
	inMem := scanAll(t, r)
	if !reflect.DeepEqual(inMem, oracle) {
		t.Fatalf("%s: memory diverged from oracle", ctx)
	}
	// Everything acknowledged is durable (the Sync above succeeded), so
	// a close error from a fault firing inside Close loses nothing.
	_ = r.Close()
	r2, err := Open("repo", WithFS(fsys), WithSegmentSize(300), WithSyncPolicy(SyncAlways))
	if err != nil {
		if r2, err = Open("repo", WithFS(fsys), WithSegmentSize(300), WithSyncPolicy(SyncAlways)); err != nil {
			t.Fatalf("%s: reopen failed twice: %v", ctx, err)
		}
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("%s: reopen lost or duplicated records: %d vs %d", ctx, len(got), len(oracle))
	}
}
