package metadata

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/vfs"
)

// Offline integrity checking (dieventql -fsck). Fsck verifies a
// repository without opening it: the manifest parses and its CRC
// holds, every sealed segment decodes strictly (each record's length
// and checksum) and matches the manifest's byte/record counts, and
// the active segment's valid prefix is measured. It never mutates the
// store, so it can run against damage that strict Open refuses — the
// report lists exactly which sealed segments WithQuarantine would
// isolate.

// FsckSegment is one file's verification result.
type FsckSegment struct {
	// Name is the file checked (a segment, or MANIFEST itself when the
	// manifest is the problem).
	Name string
	// Sealed reports the manifest's view of the segment.
	Sealed bool
	// Records and Bytes are the decoded record count and verified
	// prefix length.
	Records int
	Bytes   int64
	// Err is the verification failure; empty when the file is intact.
	// A sealed segment with Err set is quarantinable (WithQuarantine).
	Err string
	// Note reports non-fatal findings: a torn active tail that open
	// would truncate, a first segment not yet bound by a manifest.
	Note string
}

// FsckReport is the result of an offline repository check.
type FsckReport struct {
	// Segments lists per-file results in manifest order.
	Segments []FsckSegment
	// Records is the total number of records that decoded cleanly.
	Records int
}

// Clean reports whether every file verified.
func (r *FsckReport) Clean() bool {
	for _, s := range r.Segments {
		if s.Err != "" {
			return false
		}
	}
	return true
}

// Quarantinable lists the sealed segments WithQuarantine would
// isolate on the next open.
func (r *FsckReport) Quarantinable() []string {
	var out []string
	for _, s := range r.Segments {
		if s.Sealed && s.Err != "" {
			out = append(out, s.Name)
		}
	}
	return out
}

// Fsck verifies the repository in dir offline. It takes the shared
// (read) lease so it never races a live writer; where flock is
// unsupported it instead probes the writers' lease file (LOCK.<gen>) and
// refuses to run while a live owner holds it. A writer-held directory
// fails with ErrLocked. Damage is reported, not returned: the error
// return covers only environmental failures (lock, I/O on the
// directory itself).
func Fsck(dir string) (*FsckReport, error) { return fsck(vfs.OS, dir) }

// fsck is Fsck over an explicit filesystem (tests inject a FaultFS).
func fsck(fsys vfs.FS, dir string) (*FsckReport, error) {
	if c, err := fsys.Flock(dir, false); err == nil {
		defer c.Close()
	} else if errors.Is(err, vfs.ErrLockHeld) {
		return nil, fmt.Errorf("metadata: fsck %s: writer active: %w", dir, ErrLocked)
	} else if !errors.Is(err, errors.ErrUnsupported) {
		return nil, fmt.Errorf("metadata: fsck %s: %w", dir, err)
	} else if pid, ok := leaseOwner(fsys, dir); ok && pidAlive(pid) {
		// No flock available: the best we can do is probe the
		// lease-file protocol writers fall back to on the same builds.
		return nil, fmt.Errorf("metadata: fsck %s: writer active (pid %d): %w", dir, pid, ErrLocked)
	}

	rep := &FsckReport{}
	segs, haveManifest, err := readManifest(fsys, dir)
	if err != nil {
		rep.Segments = append(rep.Segments, FsckSegment{Name: manifestName, Err: err.Error()})
		return rep, nil
	}
	if !haveManifest {
		// No manifest: an empty directory or a lone first segment is
		// fine; segments beyond the first mean the manifest was lost,
		// and a metadata.log is a layout no open accepts (see
		// ensureInitSafe) — either is the finding.
		if err := ensureInitSafe(fsys, dir); err != nil {
			rep.Segments = append(rep.Segments, FsckSegment{Name: manifestName, Err: err.Error()})
			return rep, nil
		}
		name := segFileName(1)
		if _, err := fsys.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			s := fsckLenient(fsys, dir, name)
			s.Note = joinNote(s.Note, "pre-manifest layout (bound on next writable open)")
			rep.Segments = append(rep.Segments, s)
			rep.Records += s.Records
		}
		return rep, nil
	}
	for _, sm := range segs {
		if sm.sealed {
			s, recs := fsckSealed(fsys, dir, sm)
			rep.Segments = append(rep.Segments, s)
			rep.Records += s.Records
			if st := fsckStats(fsys, dir, sm, recs, s.Err == ""); st != nil {
				rep.Segments = append(rep.Segments, *st)
			}
			continue
		}
		s := fsckLenient(fsys, dir, sm.name)
		rep.Segments = append(rep.Segments, s)
		rep.Records += s.Records
	}
	return rep, nil
}

// fsckSealed strictly verifies one sealed segment against its
// manifest entry, returning the decoded records for the statistics
// cross-check (nil when the segment itself failed).
func fsckSealed(fsys vfs.FS, dir string, sm segMeta) (FsckSegment, []Record) {
	s := FsckSegment{Name: sm.name, Sealed: true}
	path := filepath.Join(dir, sm.name)
	if _, err := fsys.Stat(path); errors.Is(err, os.ErrNotExist) {
		s.Err = "segment file missing"
		return s, nil
	} else if err != nil {
		s.Err = err.Error()
		return s, nil
	}
	recs, valid, err := decodeSegment(fsys, path, true, sm.count)
	if err != nil {
		s.Err = err.Error()
		return s, nil
	}
	s.Records, s.Bytes = len(recs), valid
	switch {
	case len(recs) != sm.count:
		s.Err = fmt.Sprintf("manifest expects %d records, decoded %d", sm.count, len(recs))
	case valid != sm.bytes:
		s.Err = fmt.Sprintf("manifest expects %d bytes, verified %d", sm.bytes, valid)
	}
	return s, recs
}

// fsckStats verifies a sealed segment's statistics sidecar: the file
// decodes, its CRC matches the manifest's sts= reference, and (when the
// segment itself decoded cleanly) its contents equal a deterministic
// rebuild from the decoded records. Absent statistics on a pre-stats
// manifest entry are only a note on nil return or a row when a stray
// unreferenced sidecar exists. Sidecar rows report Sealed=false so they
// are damage (Clean() = false, exit 1) but never quarantinable — the
// segment's records are fine and a writable open regenerates the
// sidecar.
func fsckStats(fsys vfs.FS, dir string, sm segMeta, recs []Record, segOK bool) *FsckSegment {
	name := statsFileName(sm.name)
	path := filepath.Join(dir, name)
	if !sm.hasStats {
		if _, err := fsys.Stat(path); err == nil {
			return &FsckSegment{Name: name,
				Note: "unreferenced statistics sidecar (removed on next writable open)"}
		}
		return &FsckSegment{Name: name,
			Note: "no statistics sidecar (generated on next writable open)"}
	}
	s := &FsckSegment{Name: name}
	regen := "; regenerated on next writable open"
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.Err = "statistics sidecar missing" + regen
		return s
	} else if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Bytes = int64(len(data))
	st, err := decodeStats(data)
	if err != nil {
		s.Err = err.Error() + regen
		return s
	}
	if got := statsCRCOf(data); got != sm.statsCRC {
		s.Err = fmt.Sprintf("sidecar version %08x, manifest expects %08x%s", got, sm.statsCRC, regen)
		return s
	}
	if !segOK {
		s.Note = "segment failed verification; statistics not cross-checked"
		return s
	}
	if !bytes.Equal(encodeStats(statsOfRecords(recs)), encodeStats(st)) {
		s.Err = "statistics diverge from segment contents" + regen
	}
	return s
}

// fsckLenient measures a segment's valid prefix (the active segment,
// or a pre-manifest file), noting a torn tail open would truncate.
func fsckLenient(fsys vfs.FS, dir, name string) FsckSegment {
	s := FsckSegment{Name: name}
	path := filepath.Join(dir, name)
	info, err := fsys.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return s // an absent active segment replays as empty
	} else if err != nil {
		s.Err = err.Error()
		return s
	}
	recs, valid, err := decodeSegment(fsys, path, false, 0)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Records, s.Bytes = len(recs), valid
	if torn := info.Size() - valid; torn > 0 {
		s.Note = fmt.Sprintf("torn tail: %d trailing byte(s) beyond the valid prefix (truncated on next writable open)", torn)
	}
	return s
}

func joinNote(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}
