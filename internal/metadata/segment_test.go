package metadata

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// scanAll collects every record in append order.
func scanAll(t *testing.T, r *Repository) []Record {
	t.Helper()
	var out []Record
	if err := r.Scan(func(rec Record) bool { out = append(out, rec); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(300))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := r.Append(obs(i, i%4, "happy", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) < 3 {
		t.Fatalf("300-byte segments over 100 records: only %d segments", len(st.Segments))
	}
	total := 0
	for i, s := range st.Segments {
		if s.Sealed != (i < len(st.Segments)-1) {
			t.Errorf("segment %s: sealed = %v at position %d/%d", s.Name, s.Sealed, i, len(st.Segments))
		}
		total += s.Records
	}
	if total != 100 || st.Records != 100 {
		t.Errorf("segment record counts sum to %d (stats %d), want 100", total, st.Records)
	}
	want := scanAll(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, WithSegmentSize(300))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen changed records: %d vs %d", len(got), len(want))
	}
	if id, err := r2.Append(obs(100, 0, "sad", 1)); err != nil || id != 101 {
		t.Fatalf("post-reopen append: id=%d err=%v", id, err)
	}
}

// TestLegacyLogRefused: a directory holding a pre-segmentation
// metadata.log and no manifest is a layout no open accepts — writable,
// read-only and Fsck all name it instead of presenting an empty
// repository, and nothing on disk is touched.
func TestLegacyLogRefused(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	for i := 0; i < 3; i++ {
		rec := obs(i, 0, "legacy", float64(i))
		rec.ID = uint64(i + 1)
		buf = appendRecord(buf, rec)
	}
	legacy := filepath.Join(dir, legacyLogName)
	if err := os.WriteFile(legacy, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, opts := range map[string][]Option{"writable": nil, "read-only": {WithReadOnly()}} {
		r, err := Open(dir, opts...)
		if err == nil {
			r.Close()
			t.Fatalf("%s open accepted a metadata.log directory (%d records visible)", name, r.Len())
		}
		if !errors.Is(err, errors.ErrUnsupported) || !strings.Contains(err.Error(), legacyLogName) {
			t.Errorf("%s open: error %q does not name the unsupported %s layout", name, err, legacyLogName)
		}
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || !strings.Contains(rep.Segments[0].Err, legacyLogName) {
		t.Errorf("fsck did not report the %s layout: %+v", legacyLogName, rep.Segments)
	}
	if got, err := os.ReadFile(legacy); err != nil || !reflect.DeepEqual(got, buf) {
		t.Errorf("refusal modified the legacy log (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segFileName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused open left a segment behind: %v", err)
	}
}

func TestCompactMergesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 80; i++ {
		if _, err := r.Append(obs(i, i%3, "happy", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := scanAll(t, r)
	before, _ := r.Stats()
	if len(before.Segments) < 3 {
		t.Fatalf("fixture too small: %d segments", len(before.Segments))
	}

	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Everything merged into one sealed segment plus a fresh empty
	// active segment.
	if len(after.Segments) != 2 || !after.Segments[0].Sealed || after.Segments[1].Records != 0 {
		t.Fatalf("post-compact layout: %+v", after.Segments)
	}
	if after.Segments[0].Records != 80 {
		t.Fatalf("merged segment holds %d records, want 80", after.Segments[0].Records)
	}
	if got := scanAll(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("compact changed record contents")
	}
	// Old segment files are gone; only manifest-listed files remain.
	for _, s := range before.Segments[:len(before.Segments)-1] {
		if s.Name == after.Segments[0].Name {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, s.Name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("pre-compact segment %s survived cutover", s.Name)
		}
	}
	// Post-compact appends and reopen round-trip.
	if _, err := r.Append(obs(999, 0, "sad", 1)); err != nil {
		t.Fatal(err)
	}
	want = scanAll(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, want) {
		t.Fatal("reopen after compact changed records")
	}
}

// TestCompactSingleSegmentNoop pins that Compact on a repository with
// no sealed segments does nothing: there is nothing to merge, and
// rolling would only grow the layout by an empty segment.
func TestCompactSingleSegmentNoop(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		if _, err := r.Append(obs(i, 0, "x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) != 1 || st.Segments[0].Sealed {
		t.Fatalf("compact of single-segment repo changed layout: %+v", st.Segments)
	}
	if r.Len() != 10 {
		t.Fatalf("len = %d, want 10", r.Len())
	}
}

// TestCompactRenameFailureLeavesRepoUsable is the regression test for
// the wedged-handle bug: a failed compaction cutover must leave the
// repository fully writable (the pre-segmentation Compact closed the
// live log handle before renaming, so a rename failure left every later
// Append buffering into a dead writer).
func TestCompactRenameFailureLeavesRepoUsable(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS()
	r, err := Open(dir, WithSegmentSize(256), WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 60; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}

	// Fail the merged-segment rename (manifest renames keep working, so
	// the pre-compaction roll succeeds and the failure lands exactly at
	// cutover).
	boom := errors.New("injected rename failure")
	fsys.Inject = func(n int, op vfs.Op, path string) error {
		if op == vfs.OpRename && strings.HasSuffix(path, segSuffix) {
			return boom
		}
		return nil
	}

	if err := r.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact err = %v, want injected failure", err)
	}
	// The repository is not wedged: appends land, flush and fsync see no
	// stale error, and everything is durable.
	for i := 0; i < 20; i++ {
		if _, err := r.Append(obs(1000+i, 1, "sad", 1)); err != nil {
			t.Fatalf("append after failed compact: %v", err)
		}
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("sync after failed compact: %v", err)
	}
	want := scanAll(t, r)

	// With the fault cleared the next compaction succeeds.
	fsys.Inject = nil
	if err := r.Compact(); err != nil {
		t.Fatalf("retry compact: %v", err)
	}
	if got := scanAll(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("records changed across failed+retried compact")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, want) {
		t.Fatal("reopen lost records after failed+retried compact")
	}
}

func TestOpenLocked(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open err = %v, want ErrLocked", err)
	}
	// A writer also blocks read-only opens.
	if _, err := Open(dir, WithReadOnly()); !errors.Is(err, ErrLocked) {
		t.Fatalf("read-only Open under writer err = %v, want ErrLocked", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	r2.Close()
}

// TestOpenReadOnly pins the shared-lease read path: concurrent
// read-only opens coexist, writers are excluded while readers hold the
// lease, mutations are rejected, and nothing on disk changes — even a
// torn active tail is replayed, not repaired.
func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	want := scanAll(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the active tail: read-only opens must replay the valid
	// prefix without truncating the file.
	segPath := activeSegPath(t, dir)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	ro1, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro1.Close()
	ro2, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatalf("second read-only Open: %v", err)
	}
	defer ro2.Close()
	if got := scanAll(t, ro1); !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatalf("read-only replay: %d records, want %d", len(got), len(want)-1)
	}
	if _, err := ro1.Append(obs(99, 0, "x", 1)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Append err = %v, want ErrReadOnly", err)
	}
	if err := ro1.AppendBatch([]Record{obs(99, 0, "x", 1)}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AppendBatch err = %v, want ErrReadOnly", err)
	}
	if err := ro1.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Compact err = %v, want ErrReadOnly", err)
	}
	// Readers exclude writers.
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("writer Open under readers err = %v, want ErrLocked", err)
	}
	// The torn file was not repaired.
	after, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(raw)-3 {
		t.Fatalf("read-only open modified the segment: %d bytes, want %d", len(after), len(raw)-3)
	}
	ro1.Close()
	ro2.Close()
	// With readers gone a writer opens and repairs the tail as usual.
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Len() != len(want)-1 {
		t.Fatalf("writer after readers: %d records, want %d", w.Len(), len(want)-1)
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(obs(1, 0, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt manifest: err = %v, want ErrCorrupt", err)
	}
}

func TestSealedSegmentCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := r.Stats()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !st.Segments[0].Sealed {
		t.Fatal("fixture produced no sealed segment")
	}
	path := filepath.Join(dir, st.Segments[0].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Sealed segments were fsynced before the manifest referenced them:
	// damage there is real corruption and must surface, never be
	// silently truncated away like an active tail.
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt sealed segment: err = %v, want ErrCorrupt", err)
	}
}

// TestManifestLossWithSegmentsRefusesInit pins the guard against
// out-of-band manifest loss: a directory holding segments beyond
// 000001.seg but no MANIFEST must refuse to open (initialising fresh
// would orphan-sweep the surviving data), and must not delete anything.
func TestManifestLossWithSegmentsRefusesInit(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := r.Stats()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) < 2 {
		t.Fatal("fixture needs multiple segments")
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open without manifest over multi-segment data: err = %v, want ErrCorrupt", err)
	}
	for _, s := range st.Segments {
		if _, err := os.Stat(filepath.Join(dir, s.Name)); err != nil {
			t.Errorf("segment %s touched by refused init: %v", s.Name, err)
		}
	}
}

func TestOrphanSegmentCleanup(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(obs(1, 0, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between segment creation / compaction cutover and
	// the manifest write: stray files the manifest knows nothing about.
	for _, name := range []string{segFileName(99), "000042.seg.tmp", manifestTmp} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 1 {
		t.Fatalf("len = %d, want 1", r2.Len())
	}
	for _, name := range []string{segFileName(99), "000042.seg.tmp", manifestTmp} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s not cleaned up", name)
		}
	}
}

// TestCompactUnderLoadMatchesOracle runs compaction concurrently with
// batched appends and streaming queries, then asserts planned execution
// stays byte-identical to the naive oracle and that a reopen replays
// exactly what the writers stored.
func TestCompactUnderLoadMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: check.sh runs the oracle check in its own -race pass")
	}
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	const rounds, batch = 40, 25
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
			it, err := r.QueryIter("label = 'happy'", QueryOpts{Limit: 10})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			it.Close()
		}
	}()
	wg.Wait()

	for _, q := range []string{"label = 'sad'", "frame >= 100 AND frame < 500", "person = 2"} {
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
			t.Errorf("query %q diverged from oracle after compact-under-load", q)
		}
	}
	want := scanAll(t, r)
	if len(want) != rounds*batch {
		t.Fatalf("stored %d records, want %d", len(want), rounds*batch)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, want) {
		t.Fatal("reopen diverged after compact-under-load")
	}
}

// TestSyncPolicies exercises the three fsync policies end to end (the
// crash semantics themselves cannot be asserted in-process, but every
// policy must produce an identical, replayable store).
func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncOnSeal, SyncAlways, SyncNone} {
		t.Run(fmt.Sprintf("policy%d", p), func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir, WithSegmentSize(512), WithSyncPolicy(p))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, err := r.Append(obs(i, 0, "x", 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if r2.Len() != 40 {
				t.Fatalf("policy %d: reopened %d records, want 40", p, r2.Len())
			}
		})
	}
}
