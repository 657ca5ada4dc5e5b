package metadata

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/vfs"
)

// TestENOSPCAppendRecovers pins the disk-full contract for the active
// segment: while space is exhausted appends report ENOSPC (acknowledged
// records stay readable, the store stays open), and once space frees
// the append path repairs itself — every acknowledged record durable
// exactly once, nothing duplicated, nothing lost.
func TestENOSPCAppendRecovers(t *testing.T) {
	fsys := vfs.NewFaultFS()
	r, err := Open("repo", WithFS(fsys), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	var oracle []Record
	appendOne := func(frame int) (uint64, error) {
		rec := obs(frame, 0, "enospc", 1)
		id, err := r.Append(rec)
		if id != 0 {
			rec.ID = id
			oracle = append(oracle, rec)
		}
		return id, err
	}
	for i := 0; i < 10; i++ {
		if _, err := appendOne(i); err != nil {
			t.Fatal(err)
		}
	}

	// Disk full: every write to a segment file fails.
	fsys.Inject = func(n int, op vfs.Op, path string) error {
		if op == vfs.OpWrite && strings.HasSuffix(path, segSuffix) {
			return syscall.ENOSPC
		}
		return nil
	}
	// The first failing append is acknowledged-but-not-durable (the
	// record enters memory before its flush fails); later ones are
	// rejected outright because the repair rewrite needs space too.
	// Either way the error chains ENOSPC and the oracle tracks exactly
	// the acknowledged set (id != 0).
	for i := 10; i < 15; i++ {
		if _, err := appendOne(i); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append %d under full disk: err = %v, want ENOSPC in chain", i, err)
		}
	}
	// The store is open and readable throughout, and reports the fault.
	if got := r.Len(); got != len(oracle) {
		t.Fatalf("Len under full disk = %d, want %d", got, len(oracle))
	}
	h, err := r.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Degraded || !h.WriteFault {
		t.Fatalf("health under full disk = %+v, want WriteFault", h)
	}

	// Space frees: the next append repairs and succeeds.
	fsys.Inject = nil
	if _, err := appendOne(100); err != nil {
		t.Fatalf("append after space freed: %v", err)
	}
	h, err = r.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.WriteFault {
		t.Fatal("WriteFault still set after successful repair")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open("repo", WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("reopen has %d records, oracle %d — duplicate or lost records after ENOSPC", len(got), len(oracle))
	}
}

// TestShortWriteDuringAppend injects a short write (half the buffer
// lands, then ENOSPC): the rejected record must not survive, the next
// append must repair the torn tail, and a reopen must agree.
func TestShortWriteDuringAppend(t *testing.T) {
	fsys := vfs.NewFaultFS()
	// SyncNone+large buffer would hide the fault in bufio; SyncAlways
	// pushes every record through the seam.
	r, err := Open("repo", WithFS(fsys), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	var oracle []Record
	for i := 0; i < 10; i++ {
		rec := obs(i, 0, "short", 1)
		id, err := r.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.ID = id
		oracle = append(oracle, rec)
	}
	armed := true
	fsys.Inject = func(n int, op vfs.Op, path string) error {
		if armed && op == vfs.OpWrite && strings.HasSuffix(path, segSuffix) {
			armed = false
			return errors.Join(io.ErrShortWrite, syscall.ENOSPC)
		}
		return nil
	}
	rec := obs(10, 0, "short", 1)
	id, err := r.Append(rec)
	if err == nil {
		t.Fatal("append through short write succeeded, want error")
	}
	if id != 0 {
		// Acknowledged despite the failed flush (SyncAlways semantics).
		rec.ID = id
		oracle = append(oracle, rec)
	}
	// Repair and continue.
	rec2 := obs(11, 0, "short", 1)
	id2, err := r.Append(rec2)
	if err != nil {
		t.Fatalf("append after short write: %v", err)
	}
	rec2.ID = id2
	oracle = append(oracle, rec2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open("repo", WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("reopen has %d records, oracle %d", len(got), len(oracle))
	}
}

// TestENOSPCDuringManifestSwap exhausts the disk exactly when a roll
// writes MANIFEST.tmp: the roll's append is rejected, the old manifest
// still governs, and once space frees appends and the manifest swap
// proceed — reopen sees every acknowledged record exactly once.
func TestENOSPCDuringManifestSwap(t *testing.T) {
	fsys := vfs.NewFaultFS()
	r, err := Open("repo", WithFS(fsys), WithSegmentSize(300), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	var oracle []Record
	appendOne := func(frame int) error {
		rec := obs(frame, 0, "swap", 1)
		id, err := r.Append(rec)
		if id != 0 {
			rec.ID = id
			oracle = append(oracle, rec)
		}
		return err
	}
	// Fill until the active segment is past the roll threshold, so the
	// very next append must roll (and so must swap the manifest).
	i := 0
	for {
		st, err := r.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if act := st.Segments[len(st.Segments)-1]; len(st.Segments) == 1 && act.Bytes >= 300 {
			break
		}
		if err := appendOne(i); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Next roll's manifest write hits a full disk.
	fsys.Inject = func(n int, op vfs.Op, path string) error {
		if op == vfs.OpWrite && strings.HasSuffix(path, manifestTmp) {
			return syscall.ENOSPC
		}
		return nil
	}
	for j := 0; j < 3; j++ {
		if err := appendOne(1000 + j); err == nil {
			t.Fatal("append requiring manifest swap succeeded under full disk")
		} else if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("err = %v, want ENOSPC in chain", err)
		}
	}
	// Space frees: the swap goes through and appends resume.
	fsys.Inject = nil
	for j := 0; j < 20; j++ {
		if err := appendOne(2000 + j); err != nil {
			t.Fatalf("append after space freed: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open("repo", WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := scanAll(t, r2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("reopen has %d records, oracle %d — manifest-swap fault corrupted the store", len(got), len(oracle))
	}
	st, err := r2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) < 2 {
		t.Fatalf("roll never completed after recovery: %+v", st.Segments)
	}
}
