package metadata

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/vfs"
)

// On-disk layout (DESIGN.md §5): the repository directory holds
// numbered segment files plus a checksummed MANIFEST naming them in
// order. All segments but the last are sealed — fsynced, immutable,
// replayed strictly (any corruption is an error, never silently
// truncated). The last segment is active: appends go there, and only
// its tail may legitimately be torn by a crash, so corrupt-tail
// truncation applies to it alone.
//
//	000001.seg   sealed
//	000002.seg   sealed
//	000003.seg   active
//	MANIFEST     segment list + CRC, replaced atomically
//
// The directory itself is flock'd while open — exclusively by writers,
// shared by read-only opens (LOCK.<gen> files are the non-unix fallback
// lease, see lockfile.go).
//
// Every manifest replacement and segment creation is followed by a
// parent-directory fsync, so a crash can neither resurrect a
// pre-compaction segment set nor lose a just-created segment.

const (
	manifestName  = "MANIFEST"
	manifestTmp   = "MANIFEST.tmp"
	lockName      = "LOCK"
	segSuffix     = ".seg"
	legacyLogName = "metadata.log" // pre-segmentation single-file log; refused, see ensureInitSafe
)

// segMeta describes one segment: its file, the contiguous run of
// in-memory positions it covers, and whether it is sealed.
type segMeta struct {
	name   string // file name within the repository dir ("000001.seg")
	bytes  int64  // encoded size; exact for sealed segments
	count  int    // records stored; exact for sealed segments
	first  int    // first in-memory position (derived at open, not persisted)
	sealed bool
	// quarantined marks a sealed segment that failed strict replay under
	// WithQuarantine: its manifest entry (and file) stay in place, its
	// records are absent from memory, and Compact refuses to run.
	quarantined bool
	// hasStats reports that the manifest entry references a statistics
	// sidecar (sts=<crc>); statsCRC is the sidecar version it binds to.
	hasStats bool
	statsCRC uint32
	// stats is the loaded (or freshly built) statistics block; nil when
	// the sidecar is absent or failed verification. Runtime only.
	stats *segStats
	// skipped marks a sealed segment excluded wholesale by an open-time
	// filter (WithOpenFilter): its records were never decoded and it
	// covers a zero-width position range. Runtime only, read-only opens.
	skipped bool
}

// segFileName renders the numbered segment file name.
func segFileName(id uint64) string {
	return fmt.Sprintf("%06d%s", id, segSuffix)
}

// segFileID parses the numeric part of a segment file name.
func segFileID(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segSuffix)
	if !ok || base == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// syncDir fsyncs a directory, making preceding renames and file
// creations within it durable. All filesystem access below goes
// through the vfs seam (internal/vfs) so the crash-consistency
// harness can inject faults at every operation.
func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("metadata: fsyncing dir %s: %w", dir, err)
	}
	return nil
}

// --- manifest ---

const manifestHeader = "dievent-manifest v1"

// encodeManifest renders the segment list:
//
//	dievent-manifest v1
//	seg 000001.seg sealed 12345 678 sts=deadbeef
//	seg 000002.seg active 90 12
//	crc32 deadbeef
//
// The trailing CRC covers every preceding byte; sealed byte/record
// counts are validated against the files at open. The optional sts=
// token on sealed entries names the CRC of the segment's statistics
// sidecar (NNNNNN.sts, see stats.go) — entries without it are the
// pre-stats format and their sidecars regenerate on a writable open.
func encodeManifest(segs []segMeta) []byte {
	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for _, s := range segs {
		state := "active"
		if s.sealed {
			state = "sealed"
		}
		fmt.Fprintf(&b, "seg %s %s %d %d", s.name, state, s.bytes, s.count)
		if s.sealed && s.hasStats {
			fmt.Fprintf(&b, " sts=%08x", s.statsCRC)
		}
		b.WriteByte('\n')
	}
	body := b.String()
	return []byte(fmt.Sprintf("%scrc32 %08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

// parseManifest validates and decodes a manifest: header, CRC trailer,
// at least one segment, exactly one active segment in last position.
func parseManifest(data []byte) ([]segMeta, error) {
	text := string(data)
	crcAt := strings.LastIndex(text, "crc32 ")
	if crcAt < 0 || !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("metadata: manifest missing crc trailer: %w", ErrCorrupt)
	}
	wantCRC, err := strconv.ParseUint(strings.TrimSpace(text[crcAt+len("crc32 "):]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("metadata: manifest crc trailer: %w", ErrCorrupt)
	}
	body := text[:crcAt]
	if crc32.ChecksumIEEE([]byte(body)) != uint32(wantCRC) {
		return nil, fmt.Errorf("metadata: manifest checksum mismatch: %w", ErrCorrupt)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestHeader {
		return nil, fmt.Errorf("metadata: manifest header: %w", ErrCorrupt)
	}
	var segs []segMeta
	seen := make(map[string]bool)
	for _, line := range lines[1:] {
		// Token-exact parsing: Sscanf would accept negative counts and
		// silently ignore trailing garbage, letting a CRC-valid but
		// hand-damaged entry flow a negative count into first-position
		// arithmetic and compaction's mergeCount.
		fields := strings.Fields(line)
		entryErr := func(what string) ([]segMeta, error) {
			return nil, fmt.Errorf("metadata: manifest entry %q: %s: %w", line, what, ErrCorrupt)
		}
		if len(fields) < 5 || fields[0] != "seg" {
			return entryErr("malformed")
		}
		name, state := fields[1], fields[2]
		nbytes, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || nbytes < 0 {
			return entryErr("bad byte count")
		}
		count, err := strconv.Atoi(fields[4])
		if err != nil || count < 0 {
			return entryErr("bad record count")
		}
		if _, ok := segFileID(name); !ok {
			return nil, fmt.Errorf("metadata: manifest segment name %q: %w", name, ErrCorrupt)
		}
		if state != "sealed" && state != "active" {
			return nil, fmt.Errorf("metadata: manifest segment state %q: %w", state, ErrCorrupt)
		}
		if seen[name] {
			return entryErr("duplicate segment name")
		}
		seen[name] = true
		sm := segMeta{name: name, bytes: nbytes, count: count, sealed: state == "sealed"}
		rest := fields[5:]
		if len(rest) > 0 && sm.sealed && strings.HasPrefix(rest[0], "sts=") {
			hex := strings.TrimPrefix(rest[0], "sts=")
			crc, err := strconv.ParseUint(hex, 16, 32)
			if err != nil || len(hex) != 8 {
				return entryErr("bad stats reference")
			}
			sm.hasStats, sm.statsCRC = true, uint32(crc)
			rest = rest[1:]
		}
		if len(rest) > 0 {
			return entryErr("trailing tokens")
		}
		segs = append(segs, sm)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("metadata: manifest lists no segments: %w", ErrCorrupt)
	}
	for i, s := range segs {
		if s.sealed != (i < len(segs)-1) {
			return nil, fmt.Errorf("metadata: manifest active segment misplaced: %w", ErrCorrupt)
		}
	}
	return segs, nil
}

// writeManifest atomically replaces the manifest: write a temp file,
// fsync it, rename over MANIFEST, fsync the directory. A crash leaves
// either the old or the new manifest, never a torn one. installed
// reports whether the rename happened: from that point the new
// manifest governs the live filesystem even if the trailing directory
// fsync failed, so on (installed, err) callers must commit to the new
// segment list — and in particular must NOT delete files it references
// — rather than rolling back; only a crash can revert to the old
// manifest, whose own files callers keep in place until a fully
// successful swap.
func writeManifest(fsys vfs.FS, dir string, segs []segMeta) (installed bool, err error) {
	tmp := filepath.Join(dir, manifestTmp)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false, fmt.Errorf("metadata: creating manifest temp: %w", err)
	}
	_, werr := f.Write(encodeManifest(segs))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp)
		return false, fmt.Errorf("metadata: writing manifest: %w", werr)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		fsys.Remove(tmp)
		return false, fmt.Errorf("metadata: installing manifest: %w", err)
	}
	return true, syncDir(fsys, dir)
}

// readManifest loads the manifest; ok is false when none exists yet.
func readManifest(fsys vfs.FS, dir string) (segs []segMeta, ok bool, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("metadata: reading manifest: %w", err)
	}
	segs, err = parseManifest(data)
	if err != nil {
		return nil, false, err
	}
	return segs, true, nil
}

// --- segment decoding ---

// decodeSegment replays one segment file. In strict mode (sealed
// segments) any malformed entry is an error — sealed segments were
// fsynced before the manifest referenced them, so corruption there is
// real damage, not a torn tail. In lenient mode (the active segment)
// decoding stops at the first bad entry and validBytes reports the end
// of the valid prefix, which the caller truncates to. A missing file is
// real damage in strict mode — a sealed segment was durable before its
// manifest entry existed, so its absence is ErrCorrupt even when the
// manifest records it as empty (0 bytes, 0 records); the byte/count
// cross-check alone would wave that case through. Leniently (the active
// segment, which a first open may not have created yet) a missing file
// decodes as empty. count is the manifest's record count (0 when
// unknown): the result is sized from it once, never beyond what the
// file's own length could hold.
func decodeSegment(fsys vfs.FS, path string, strict bool, count int) (recs []Record, validBytes int64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		if strict {
			return nil, 0, fmt.Errorf("metadata: sealed segment %s missing: %w", filepath.Base(path), ErrCorrupt)
		}
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("metadata: opening segment for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("metadata: segment stat: %w", err)
	}
	recs, validBytes, err = decodeEntries(f, st.Size(), count)
	if err != nil && strict {
		return nil, 0, fmt.Errorf("metadata: sealed segment %s: %w", filepath.Base(path), err)
	}
	return recs, validBytes, nil // lenient: a torn tail keeps the valid prefix
}

// segReadBuf is the decoder's read window; only an entry longer than it
// is copied out (into the one allocation it needs).
const segReadBuf = 1 << 16

// decodeEntries is the one segment decoder: it streams entries out of r
// until a clean end of stream (err == nil) or the first malformed entry
// (ErrCorrupt, wrapped), returning the records of the valid prefix and
// its length either way. Each entry is checked in place in the read
// window — length bounds, CRC — and parsed by decodePayload, with labels
// interned in a table this call owns; untagged records allocate nothing.
// size is the stream's length and count the expected number of records:
// the result is allocated once at count, or at the most size could hold
// when count is unknown or claims more.
func decodeEntries(r io.Reader, size int64, count int) (recs []Record, validBytes int64, err error) {
	if most := int(size / minEntry); count <= 0 || count > most {
		count = most
	}
	recs = make([]Record, 0, count)
	br := bufio.NewReaderSize(r, segReadBuf)
	labels := make(labelTable)
	var long []byte
	for {
		hdr, perr := br.Peek(4)
		if len(hdr) < 4 {
			if len(hdr) == 0 && perr == io.EOF {
				return recs, validBytes, nil
			}
			return recs, validBytes, fmt.Errorf("metadata: entry header: %w", ErrCorrupt)
		}
		// Check the length as stored: on a 32-bit build int() of a
		// length ≥ 2³¹ goes negative and would pass a check on the int.
		u := binary.LittleEndian.Uint32(hdr)
		if u == 0 || u > maxEntry {
			return recs, validBytes, fmt.Errorf("metadata: entry length %d: %w", u, ErrCorrupt)
		}
		n := int(u)
		total := 4 + n + 4
		var entry []byte
		if total <= segReadBuf {
			entry, _ = br.Peek(total)
		} else {
			if cap(long) < total {
				long = make([]byte, total)
			}
			got, _ := io.ReadFull(br, long[:total])
			entry = long[:got]
		}
		switch {
		case len(entry) < 4+n:
			return recs, validBytes, fmt.Errorf("metadata: entry payload: %w", ErrCorrupt)
		case len(entry) < total:
			return recs, validBytes, fmt.Errorf("metadata: entry crc: %w", ErrCorrupt)
		}
		payload := entry[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(entry[4+n:]) {
			return recs, validBytes, fmt.Errorf("metadata: entry checksum: %w", ErrCorrupt)
		}
		rec, derr := decodePayload(payload, labels)
		if derr != nil {
			return recs, validBytes, derr
		}
		if total <= segReadBuf {
			br.Discard(total)
		}
		recs = append(recs, rec)
		validBytes += int64(total)
	}
}

// removeOrphans deletes files a crash may have stranded: segment files
// the manifest does not reference (created before a manifest write that
// never landed, or left behind by an interrupted compaction cutover),
// statistics sidecars no manifest entry binds to (written just before a
// seal or regeneration whose manifest never landed — their CRC is
// unreferenced, so they can never be trusted anyway), and stale
// temporaries. Runs after the manifest is loaded, before replay.
func removeOrphans(fsys vfs.FS, dir string, segs []segMeta) (removed int, err error) {
	known := make(map[string]bool, len(segs))
	knownStats := make(map[string]bool, len(segs))
	for _, s := range segs {
		known[s.name] = true
		if s.hasStats {
			knownStats[statsFileName(s.name)] = true
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("metadata: listing repository dir: %w", err)
	}
	var topLease uint64
	for _, e := range entries {
		if gen, ok := leaseGen(e.Name()); ok && gen > topLease {
			topLease = gen
		}
	}
	for _, e := range entries {
		name := e.Name()
		stray := strings.HasSuffix(name, ".tmp")
		if gen, isLease := leaseGen(name); isLease && gen < topLease {
			stray = true
		}
		if _, isSeg := segFileID(name); isSeg && !known[name] {
			stray = true
		}
		if strings.HasSuffix(name, statsSuffix) && !knownStats[name] {
			stray = true
		}
		if stray {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return removed, fmt.Errorf("metadata: removing orphan %s: %w", name, err)
			}
			removed++
		}
	}
	return removed, nil
}

// ensureInitSafe refuses to initialise a manifest-less directory that
// contains segment files beyond 000001.seg. A crash can never produce
// that state — the manifest exists before any roll can create
// 000002.seg, and manifest replacement is an atomic rename — so it
// means the MANIFEST was lost out-of-band (partial restore, stray
// deletion) while the data survived; initialising fresh would let the
// orphan sweep silently destroy every segment the lost manifest
// referenced. (A lone 000001.seg is the legitimate crash window of a
// first open and replays as the active segment.) It likewise refuses a
// pre-segmentation metadata.log: that layout is no longer read, and
// opening the directory as empty would hide its records.
func ensureInitSafe(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("metadata: listing repository dir: %w", err)
	}
	for _, e := range entries {
		if e.Name() == legacyLogName {
			return fmt.Errorf("metadata: %s holds a pre-segmentation %s and no MANIFEST, a layout this version does not open: %w",
				dir, legacyLogName, errors.ErrUnsupported)
		}
		if id, ok := segFileID(e.Name()); ok && id != 1 {
			return fmt.Errorf("metadata: segment %s present but MANIFEST missing (restore the manifest or move the segments aside): %w",
				e.Name(), ErrCorrupt)
		}
	}
	return nil
}

// nextSegIDAfter derives the next unused segment number from a
// manifest's segment list.
func nextSegIDAfter(segs []segMeta) uint64 {
	var max uint64
	for _, s := range segs {
		if id, ok := segFileID(s.name); ok && id > max {
			max = id
		}
	}
	return max + 1
}
