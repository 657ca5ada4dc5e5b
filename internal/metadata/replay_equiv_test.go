package metadata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// Replay equivalence: whatever Open replays — bulk copy, then one
// tally-then-fill index build — must leave the repository exactly as if
// every replayed record had gone through Repository.index one at a time,
// the append path's indexer. The reference below is built that way, from
// segment bytes decoded by the readRecord oracle.

// replayRef is the reference repository plus what its build exercised.
type replayRef struct {
	*Repository
	tailed    bool // a rangeIdx held out-of-order positions in its tail
	compacted bool // …and merged it into the sorted run
	long      bool // an entry longer than the decoder's read window was replayed
}

// referenceReplay rebuilds dir's repository the slow way. skip names the
// segments the open under test leaves out (quarantined, filtered).
func referenceReplay(t *testing.T, fsys vfs.FS, dir string, skip map[string]bool) replayRef {
	t.Helper()
	segs, ok, err := readManifest(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		segs = []segMeta{{name: segFileName(1)}}
	}
	ref := replayRef{Repository: newMem()}
	ref.segs = segs
	for i := range segs {
		s := &ref.segs[i]
		s.first = ref.store.n
		if skip[s.name] {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			t.Fatal(err)
		}
		recs, valid, err := readRecords(bytes.NewReader(data))
		if err != nil && s.sealed {
			t.Fatalf("reference: sealed segment %s: %v", s.name, err)
		}
		if !s.sealed {
			s.count, s.bytes = len(recs), valid
		}
		for _, rec := range recs {
			hadTail := len(ref.byFrame.tail) > 0
			ref.index(rec)
			if rec.ID >= ref.nextID {
				ref.nextID = rec.ID + 1
			}
			ref.tailed = ref.tailed || len(ref.byFrame.tail) > 0
			ref.compacted = ref.compacted || (hadTail && len(ref.byFrame.tail) == 0)
			ref.long = ref.long || len(rec.Tags) > segReadBuf/1024
		}
	}
	return ref
}

// assertSameReplay compares everything replay builds.
func assertSameReplay(t *testing.T, what string, got *Repository, ref replayRef) {
	t.Helper()
	if got.store.n != ref.store.n {
		t.Fatalf("%s: %d records replayed, reference %d", what, got.store.n, ref.store.n)
	}
	for pos := 0; pos < got.store.n; pos++ {
		if !sameRecords([]Record{*got.store.at(pos)}, []Record{*ref.store.at(pos)}) {
			t.Fatalf("%s: position %d holds %v, reference %v", what, pos, *got.store.at(pos), *ref.store.at(pos))
		}
	}
	for _, idx := range []struct {
		name     string
		got, ref any
	}{
		{"byKind", got.byKind, ref.byKind}, {"byLabel", got.byLabel, ref.byLabel}, {"byPerson", got.byPerson, ref.byPerson},
		{"byFrame", got.byFrame, ref.byFrame}, {"byTime", got.byTime, ref.byTime}, {"nextID", got.nextID, ref.nextID},
	} {
		if !reflect.DeepEqual(idx.got, idx.ref) {
			t.Fatalf("%s: %s differs from the record-at-a-time reference\n got %v\nwant %v", what, idx.name, idx.got, idx.ref)
		}
	}
	if len(got.segs) != len(ref.segs) {
		t.Fatalf("%s: %d segments, reference %d", what, len(got.segs), len(ref.segs))
	}
	for i, s := range got.segs {
		if w := ref.segs[i]; s.name != w.name || s.first != w.first || s.count != w.count || s.bytes != w.bytes {
			t.Fatalf("%s: segment %s first/count/bytes = %d/%d/%d, reference %s %d/%d/%d",
				what, s.name, s.first, s.count, s.bytes, w.name, w.first, w.count, w.bytes)
		}
	}
}

// replayStore writes one generated store: records out of frame and time
// order unless ordered, tags, the occasional entry longer than the
// decoder's read window, over a segment size drawn so the store spans
// 1–40 segments.
func replayStore(t *testing.T, rng *rand.Rand, fsys vfs.FS, dir string, ordered bool) {
	t.Helper()
	n := 300 + rng.Intn(3500)
	segSize := int64(n*72/(1+rng.Intn(40)) + 1)
	r, err := Open(dir, WithFS(fsys), WithSegmentSize(segSize), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 0, 64)
	for i := 0; i < n; i++ {
		rec := genRecord(rng)
		if ordered && rec.Frame >= 0 {
			end := rec.FrameEnd - rec.Frame
			rec.Frame, rec.Time = i/3, time.Duration(i/3)*40*time.Millisecond
			if rec.FrameEnd >= 0 {
				rec.FrameEnd = rec.Frame + end
			}
		}
		if rng.Intn(1500) == 0 {
			rec = longRecord(0)
		}
		batch = append(batch, rec)
		if len(batch) == cap(batch) || i == n-1 {
			if err := r.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// rewriteFile replaces an existing file's contents (FaultFS has no
// O_APPEND).
func rewriteFile(t *testing.T, fsys vfs.FS, path string, edit func(data []byte) []byte) {
	t.Helper()
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(edit(data)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func openedHealth(t *testing.T, r *Repository) Health {
	t.Helper()
	h, err := r.Health()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReplayEquivalenceProperty: over seeded generated stores, every
// kind of open — read-only, writable over a torn active tail, degraded
// around a quarantined segment, filtered by segment statistics, and the
// manifest-less read-only directory — equals the reference replay, in
// memory and in its Health report, and plans queries like the naive scan.
func TestReplayEquivalenceProperty(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	const dir = "/repo"
	var tailed, compacted, long, torn, quarantined, skipped, multi int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(2100 + seed)))
		base := vfs.NewFaultFS()
		replayStore(t, rng, base, dir, seed%4 == 3)
		segs, _, err := readManifest(base, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 1 {
			multi++
		}
		what := func(kind string) string { return fmt.Sprintf("seed %d (%d segments), %s open", seed, len(segs), kind) }

		// Read-only: nothing to recover.
		ref := referenceReplay(t, base, dir, nil)
		ro, err := Open(dir, WithFS(base), WithReadOnly())
		if err != nil {
			t.Fatalf("%s: %v", what("read-only"), err)
		}
		assertSameReplay(t, what("read-only"), ro, ref)
		if h := openedHealth(t, ro); h.Degraded || len(h.Recovery) != 0 {
			t.Fatalf("%s: health %+v on an intact store", what("read-only"), h)
		}
		runEquivalence(t, ro, int64(seed), 4)
		ro.Close()
		if ref.tailed {
			tailed++
		}
		if ref.compacted {
			compacted++
		}
		if ref.long {
			long++
		}

		// Writable over a torn active tail: the valid prefix, and the
		// truncation reported.
		fsys := base.Clone()
		act := segs[len(segs)-1]
		tail := appendRecord(nil, genRecord(rng))
		tail = tail[:1+rng.Intn(len(tail)-1)]
		var intact int
		rewriteFile(t, fsys, filepath.Join(dir, act.name), func(data []byte) []byte {
			intact = len(data)
			return append(data, tail...)
		})
		ref = referenceReplay(t, fsys, dir, nil)
		rw, err := Open(dir, WithFS(fsys))
		if err != nil {
			t.Fatalf("%s: %v", what("torn-tail"), err)
		}
		assertSameReplay(t, what("torn-tail"), rw, ref)
		want := fmt.Sprintf("truncated torn tail of %s (%d → %d bytes)", act.name, intact+len(tail), intact)
		if h := openedHealth(t, rw); h.Degraded || !reflect.DeepEqual(h.Recovery, []string{want}) {
			t.Fatalf("%s: recovery %q, want [%q]", what("torn-tail"), h.Recovery, want)
		}
		rw.Close()
		torn++

		if len(segs) < 3 {
			continue
		}
		sealed := segs[:len(segs)-1]

		// Degraded: one sealed segment damaged, quarantined with its gap.
		fsys = base.Clone()
		bad := sealed[rng.Intn(len(sealed))]
		rewriteFile(t, fsys, filepath.Join(dir, bad.name), func(data []byte) []byte {
			data[rng.Intn(len(data))] ^= 0x40
			return data
		})
		ref = referenceReplay(t, fsys, dir, map[string]bool{bad.name: true})
		q, err := Open(dir, WithFS(fsys), WithReadOnly(), WithQuarantine())
		if err != nil {
			t.Fatalf("%s: %v", what("quarantine"), err)
		}
		assertSameReplay(t, what("quarantine"), q, ref)
		gap := SegmentHealth{Name: bad.name, Records: bad.count, Bytes: bad.bytes, FrameGap: [2]int{-1, -1}}
		for i, s := range ref.segs {
			if s.name != bad.name {
				continue
			}
			if !q.segs[i].quarantined {
				t.Fatalf("%s: %s not marked quarantined", what("quarantine"), bad.name)
			}
			if p := s.first - 1; p >= 0 {
				gap.FrameGap[0], gap.TimeGap[0] = ref.store.at(p).Frame, ref.store.at(p).Time
			}
			if p := s.first; p < ref.store.n {
				gap.FrameGap[1], gap.TimeGap[1] = ref.store.at(p).Frame, ref.store.at(p).Time
			}
		}
		h := openedHealth(t, q)
		if len(h.Quarantined) != 1 || !strings.Contains(h.Quarantined[0].Err, ErrCorrupt.Error()) {
			t.Fatalf("%s: quarantine report %+v", what("quarantine"), h.Quarantined)
		}
		gap.Err = h.Quarantined[0].Err
		if !h.Degraded || h.Quarantined[0] != gap {
			t.Fatalf("%s: quarantine report %+v, want %+v", what("quarantine"), h.Quarantined[0], gap)
		}
		runEquivalence(t, q, int64(seed), 2)
		q.Close()
		quarantined++

		// Filtered: the segments the statistics exclude are never decoded.
		expr, err := Parse(fmt.Sprintf("frame >= %d AND label = '%s'", 100+rng.Intn(800), equivLabels[rng.Intn(len(equivLabels))]))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Open(dir, WithFS(base), WithReadOnly(), WithOpenFilter(expr))
		if err != nil {
			t.Fatalf("%s: %v", what("filtered"), err)
		}
		skip := make(map[string]bool)
		for _, s := range cold.segs {
			if s.skipped {
				skip[s.name] = true
			}
		}
		assertSameReplay(t, what("filtered"), cold, referenceReplay(t, base, dir, skip))
		h = openedHealth(t, cold)
		if len(skip) == 0 && len(h.Recovery) != 0 ||
			len(skip) > 0 && !reflect.DeepEqual(h.Recovery, []string{fmt.Sprintf("open filter skipped %d sealed segment(s) via statistics", len(skip))}) {
			t.Fatalf("%s: %d segments skipped, recovery %q", what("filtered"), len(skip), h.Recovery)
		}
		cold.Close()
		if len(skip) > 0 {
			skipped++
		}
	}

	// The manifest-less read-only directory: a lone first segment from an
	// interrupted first open, torn.
	for seed := 0; seed < seeds/4; seed++ {
		rng := rand.New(rand.NewSource(int64(2200 + seed)))
		fsys := vfs.NewFaultFS()
		r, err := Open(dir, WithFS(fsys))
		if err != nil {
			t.Fatal(err)
		}
		fillRepo(t, r, rng, 200+rng.Intn(1500))
		r.Close()
		if err := fsys.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		rewriteFile(t, fsys, filepath.Join(dir, segFileName(1)), func(data []byte) []byte {
			return append(data, 9, 0, 0, 0, 1, 2, 3)
		})
		ref := referenceReplay(t, fsys, dir, nil)
		bare, err := Open(dir, WithFS(fsys), WithReadOnly())
		if err != nil {
			t.Fatalf("manifest-less seed %d: %v", seed, err)
		}
		assertSameReplay(t, fmt.Sprintf("manifest-less seed %d", seed), bare, ref)
		runEquivalence(t, bare, int64(seed), 2)
		bare.Close()
	}

	// Non-vacuity: the generated set reached the paths it is there for.
	if tailed == 0 || compacted == 0 || long == 0 || torn == 0 || quarantined == 0 || skipped == 0 || multi == 0 {
		t.Fatalf("vacuous run: rangeIdx tail %d, compaction %d, long entries %d, torn tails %d, quarantines %d, filtered skips %d, multi-segment stores %d of %d seeds",
			tailed, compacted, long, torn, quarantined, skipped, multi, seeds)
	}
}

// archiveRecord is record i of a benchmark-shaped history: frame-ordered
// observations from a small label vocabulary, no tags, the odd two-person
// event.
func archiveRecord(i int, rng *rand.Rand) Record {
	const persons = 16
	labels := [...]string{"happy", "neutral", "sad"}
	frame := i / persons
	rec := Record{Kind: KindObservation, Frame: frame, FrameEnd: frame + 1,
		Time: time.Duration(frame) * 40 * time.Millisecond, Person: i % persons, Other: -1,
		Label: labels[rng.Intn(len(labels))], Value: float64(rng.Intn(1000)) / 1000}
	if i%63 == 62 {
		rec.Kind, rec.Label, rec.FrameEnd = KindEvent, "eye-contact", frame+12
		rec.Other = (rec.Person + 1 + rng.Intn(persons-1)) % persons
	}
	return rec
}

// TestReplayAllocationFree is the replay path's non-vacuity gate: on a
// benchmark-shaped history a full open allocates per segment, not per
// record, and builds every index at exactly its final size.
func TestReplayAllocationFree(t *testing.T) {
	const n = 200_000
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(1<<20), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	batch := make([]Record, 0, 8192)
	for i := 0; i < n; i++ {
		batch = append(batch, archiveRecord(i, rng))
		if len(batch) == cap(batch) || i == n-1 {
			if err := r.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ro, err := Open(dir, WithReadOnly())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != n {
		t.Fatalf("replayed %d records, want %d", ro.Len(), n)
	}
	if perRec := float64(after.Mallocs-before.Mallocs) / n; perRec >= 0.01 {
		t.Fatalf("full open made %.4f allocations per record (%d for %d records), want < 0.01",
			perRec, after.Mallocs-before.Mallocs, n)
	}
	exact := func(name string, idx []int) {
		t.Helper()
		if len(idx) != cap(idx) {
			t.Fatalf("%s: len %d, cap %d after a read-only open — not built at exact size", name, len(idx), cap(idx))
		}
	}
	for k := range ro.byKind {
		exact(fmt.Sprintf("byKind[%v]", Kind(k)), ro.byKind[k])
	}
	for l, idx := range ro.byLabel {
		exact("byLabel["+l+"]", idx)
	}
	for p, idx := range ro.byPerson {
		exact(fmt.Sprintf("byPerson[%d]", p), idx)
	}
	exact("byFrame.sorted", ro.byFrame.sorted)
	exact("byTime.sorted", ro.byTime.sorted)
	if len(ro.byFrame.sorted) != n || len(ro.byTime.sorted) != n || len(ro.byFrame.tail)+len(ro.byTime.tail) != 0 {
		t.Fatalf("range indexes hold %d/%d sorted and %d/%d tail positions for %d in-order records",
			len(ro.byFrame.sorted), len(ro.byTime.sorted), len(ro.byFrame.tail), len(ro.byTime.tail), n)
	}
}

// TestReplayRejectsUnknownKind: a CRC-valid entry whose kind byte is
// outside the vocabulary is corruption — the per-kind index is an array,
// and replay used to index it with whatever the byte held.
func TestReplayRejectsUnknownKind(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, WithSegmentSize(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Append(obs(i, 0, "happy", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteFile(t, vfs.OS, filepath.Join(dir, segFileName(1)), func(data []byte) []byte {
		data[4+8] = 200 // the kind byte, re-checksummed
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[4:len(data)-4]))
		return data
	})
	if _, err := Open(dir, WithReadOnly()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a kind-200 record: err = %v, want ErrCorrupt", err)
	}
	q, err := Open(dir, WithReadOnly(), WithQuarantine())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if h := openedHealth(t, q); q.Len() != 2 || len(h.Quarantined) != 1 {
		t.Fatalf("quarantined open: %d records, %d quarantined", q.Len(), len(h.Quarantined))
	}
}
