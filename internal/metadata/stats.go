package metadata

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/vfs"
)

// Per-segment statistics (DESIGN.md §9): every sealed segment carries a
// sidecar NNNNNN.sts holding zone maps (min/max frame, min/max time),
// per-kind record counts, and bloom filters over Label and Person —
// everything a conjunctive query needs to prove "no record in this
// segment can match" without decoding a single record. The sidecar is
// written at seal time and at compaction cutover, referenced from the
// segment's MANIFEST line (sts=<crc>), CRC-32 protected, and
// regenerated from the replayed records when absent or damaged, so
// pre-stats repositories upgrade in place on their first writable open.
//
// Soundness discipline mirrors keyRange's index-window widening: a
// statistics block may only ever prove absence conservatively (zone
// bounds are compared through the same widened integer key bounds the
// range indexes use; blooms have no false negatives; kind counts are
// exact), and every surviving candidate is still re-checked record by
// record (boundsOK + residual), so pruned results stay byte-identical
// to the naive full-scan oracle.

const (
	statsSuffix = ".sts"
	statsMagic  = "DiEvSTS1"
)

// statsFileName maps a segment file name to its statistics sidecar.
func statsFileName(segName string) string {
	return strings.TrimSuffix(segName, segSuffix) + statsSuffix
}

// --- bloom filter ---

// bloomFilter is a fixed double-hashing bloom filter: k probe bits per
// key derived from one 64-bit FNV-1a hash. An empty filter (no bits)
// definitely contains nothing.
type bloomFilter struct {
	bits []byte
}

// bloomBitsPerKey and bloomHashes size the filter at ~1% false
// positives; false negatives are impossible, which is the property
// pruning soundness rests on.
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

// newBloom sizes a filter for n distinct keys.
func newBloom(n int) bloomFilter {
	if n == 0 {
		return bloomFilter{}
	}
	return bloomFilter{bits: make([]byte, (n*bloomBitsPerKey+7)/8)}
}

func (b *bloomFilter) add(h uint64) {
	if len(b.bits) == 0 {
		return
	}
	n := uint32(len(b.bits) * 8)
	h1, h2 := uint32(h), uint32(h>>32)|1
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % n
		b.bits[bit>>3] |= 1 << (bit & 7)
	}
}

// has reports whether the key may be present (false = definitely not).
func (b bloomFilter) has(h uint64) bool {
	if len(b.bits) == 0 {
		return false
	}
	n := uint32(len(b.bits) * 8)
	h1, h2 := uint32(h), uint32(h>>32)|1
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % n
		if b.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// bloomHashString hashes a string key (FNV-1a 64).
func bloomHashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// bloomHashInt hashes an integer key through the same FNV-1a core.
func bloomHashInt(v int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range buf {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// --- segment statistics ---

// segStats is one segment's statistics block. Zone bounds are valid
// only when count > 0 (an empty segment is trivially prunable).
type segStats struct {
	count    int
	kinds    [numKinds]int
	minFrame int64
	maxFrame int64
	minTime  int64 // nanoseconds
	maxTime  int64
	labels   bloomFilter // Record.Label
	persons  bloomFilter // Record.Person and Record.Other (IDs >= 0)
}

// exclude reports whether the statistics prove no record in the
// segment can satisfy cj's absorbed conjuncts. Every check is
// one-sided: it may only return true when a match is impossible.
// Zone comparisons run through the same widened integer key bounds as
// the range-index windows (keyRange), so float query bounds can never
// exclude a record an exact re-check would accept.
func (s *segStats) exclude(cj *conjuncts) bool {
	if s.count == 0 {
		return true
	}
	if cj.frameLo.set || cj.frameHi.set {
		loK, hiK := keyRange(cj.frameLo, cj.frameHi, 1)
		if s.maxFrame < loK || s.minFrame > hiK {
			return true
		}
	}
	if cj.timeLo.set || cj.timeHi.set {
		loK, hiK := keyRange(cj.timeLo, cj.timeHi, 1e9)
		if s.maxTime < loK || s.minTime > hiK {
			return true
		}
	}
	for _, k := range cj.kinds {
		if s.kinds[k] == 0 {
			return true
		}
	}
	for _, l := range cj.labels {
		if !s.labels.has(bloomHashString(l)) {
			return true
		}
	}
	// cj.persons entries come from `person = K` conjuncts, which match
	// only Record.Person; the bloom additionally indexes Other, which
	// can only make it more inclusive — still sound, just conservative.
	for _, p := range cj.persons {
		if !s.persons.has(bloomHashInt(p)) {
			return true
		}
	}
	return false
}

// statsBuilder accumulates statistics record by record. The distinct
// key sets are kept so the blooms can be sized exactly at build time;
// build is deterministic in the record multiset (bloom bits are an OR
// of per-key masks, so insertion order is irrelevant).
type statsBuilder struct {
	count    int
	kinds    [numKinds]int
	minFrame int64
	maxFrame int64
	minTime  int64
	maxTime  int64
	labels   map[string]struct{}
	persons  map[int]struct{}
}

func newStatsBuilder() *statsBuilder {
	b := &statsBuilder{}
	b.reset()
	return b
}

func (b *statsBuilder) reset() {
	*b = statsBuilder{
		minFrame: math.MaxInt64, maxFrame: math.MinInt64,
		minTime: math.MaxInt64, maxTime: math.MinInt64,
		labels:  make(map[string]struct{}),
		persons: make(map[int]struct{}),
	}
}

func (b *statsBuilder) add(rec Record) {
	b.count++
	b.kinds[rec.Kind]++
	f := int64(rec.Frame)
	if f < b.minFrame {
		b.minFrame = f
	}
	if f > b.maxFrame {
		b.maxFrame = f
	}
	t := rec.Time.Nanoseconds()
	if t < b.minTime {
		b.minTime = t
	}
	if t > b.maxTime {
		b.maxTime = t
	}
	b.labels[rec.Label] = struct{}{}
	if rec.Person >= 0 {
		b.persons[rec.Person] = struct{}{}
	}
	if rec.Other >= 0 {
		b.persons[rec.Other] = struct{}{}
	}
}

// build finalises the accumulated statistics into a segStats.
func (b *statsBuilder) build() *segStats {
	s := &segStats{
		count: b.count, kinds: b.kinds,
		minFrame: b.minFrame, maxFrame: b.maxFrame,
		minTime: b.minTime, maxTime: b.maxTime,
		labels:  newBloom(len(b.labels)),
		persons: newBloom(len(b.persons)),
	}
	for l := range b.labels {
		s.labels.add(bloomHashString(l))
	}
	for p := range b.persons {
		s.persons.add(bloomHashInt(p))
	}
	return s
}

// statsOfSnap rebuilds the statistics block for snapshot positions
// [lo, hi) — the regeneration and validation path. The result is
// byte-identical (encoded) to what the seal-time builder produced for
// the same records.
func statsOfSnap(view snap, lo, hi int) *segStats {
	b := newStatsBuilder()
	for pos := lo; pos < hi; pos++ {
		b.add(*view.at(pos))
	}
	return b.build()
}

// statsOfRecords rebuilds a statistics block from a decoded record
// slice (Fsck's validation path).
func statsOfRecords(recs []Record) *segStats {
	b := newStatsBuilder()
	for i := range recs {
		b.add(recs[i])
	}
	return b.build()
}

// --- encoding ---

// encodeStats renders the CRC-32'd STATS block:
//
//	magic    8 bytes "DiEvSTS1"
//	count    uint32
//	kinds    numKinds × uint32
//	minFrame, maxFrame, minTimeNs, maxTimeNs  int64
//	labelBloom  uint32 len, bytes
//	personBloom uint32 len, bytes
//	crc32    uint32 over every preceding byte
//
// The trailing CRC is also the value the MANIFEST's sts= token records,
// binding the manifest to this exact sidecar version (a stale or torn
// sidecar from an interrupted seal can never be trusted by mistake).
func encodeStats(s *segStats) []byte {
	buf := make([]byte, 0, 64+len(s.labels.bits)+len(s.persons.bits))
	buf = append(buf, statsMagic...)
	var b4 [4]byte
	var b8 [8]byte
	p32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b4[:], v)
		buf = append(buf, b4[:]...)
	}
	p64 := func(v int64) {
		binary.LittleEndian.PutUint64(b8[:], uint64(v))
		buf = append(buf, b8[:]...)
	}
	p32(uint32(s.count))
	for _, n := range s.kinds {
		p32(uint32(n))
	}
	p64(s.minFrame)
	p64(s.maxFrame)
	p64(s.minTime)
	p64(s.maxTime)
	p32(uint32(len(s.labels.bits)))
	buf = append(buf, s.labels.bits...)
	p32(uint32(len(s.persons.bits)))
	buf = append(buf, s.persons.bits...)
	p32(crc32.ChecksumIEEE(buf))
	return buf
}

// statsCRCOf extracts the trailing CRC of an encoded block — the value
// the manifest's sts= token carries.
func statsCRCOf(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[len(data)-4:])
}

// decodeStats parses and verifies an encoded STATS block.
func decodeStats(data []byte) (*segStats, error) {
	fail := func(what string) (*segStats, error) {
		return nil, fmt.Errorf("metadata: stats block %s: %w", what, ErrCorrupt)
	}
	if len(data) < len(statsMagic)+4 || string(data[:len(statsMagic)]) != statsMagic {
		return fail("header")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fail("checksum")
	}
	off := len(statsMagic)
	// need reports whether n more bytes remain. A uint32 read from the
	// block converts to a negative int on a 32-bit build when it is 2^31
	// or more; such a count or length is refused, never used.
	need := func(n int) bool { return n >= 0 && n <= len(body)-off }
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v
	}
	i64 := func() int64 {
		v := int64(binary.LittleEndian.Uint64(body[off:]))
		off += 8
		return v
	}
	if !need(4 + int(numKinds)*4 + 4*8 + 4) {
		return fail("truncated")
	}
	s := &segStats{}
	s.count = int(u32())
	negative := s.count < 0
	for i := range s.kinds {
		s.kinds[i] = int(u32())
		negative = negative || s.kinds[i] < 0
	}
	if negative {
		return fail("count")
	}
	s.minFrame = i64()
	s.maxFrame = i64()
	s.minTime = i64()
	s.maxTime = i64()
	ln := int(u32())
	if ln < 0 || !need(ln+4) {
		return fail("label bloom")
	}
	if ln > 0 {
		s.labels.bits = append([]byte(nil), body[off:off+ln]...)
	}
	off += ln
	ln = int(u32())
	if !need(ln) {
		return fail("person bloom")
	}
	if ln > 0 {
		s.persons.bits = append([]byte(nil), body[off:off+ln]...)
	}
	off += ln
	if off != len(body) {
		return fail("trailing bytes")
	}
	return s, nil
}

// --- sidecar I/O ---

// writeStatsFile durably writes a segment's statistics sidecar. The
// file is written in place (no rename): until a manifest entry carries
// its CRC it is unreferenced — a torn or stale sidecar is detected by
// the CRC binding and regenerated, and the orphan sweep removes
// unreferenced sidecars at open.
func writeStatsFile(fsys vfs.FS, dir, segName string, data []byte) error {
	path := filepath.Join(dir, statsFileName(segName))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("metadata: creating stats sidecar: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(path)
		return fmt.Errorf("metadata: writing stats sidecar: %w", werr)
	}
	return nil
}

// readStats loads and verifies a sealed segment's sidecar against the
// manifest's recorded CRC. Any failure — missing file, torn write,
// stale version — returns an error; callers regenerate (writable) or
// forgo pruning (read-only).
func readStats(fsys vfs.FS, dir string, sm segMeta) (*segStats, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, statsFileName(sm.name)))
	if err != nil {
		return nil, fmt.Errorf("metadata: reading stats sidecar for %s: %w", sm.name, err)
	}
	s, err := decodeStats(data)
	if err != nil {
		return nil, err
	}
	if got := statsCRCOf(data); got != sm.statsCRC {
		return nil, fmt.Errorf("metadata: stats sidecar for %s is version %08x, manifest expects %08x: %w",
			sm.name, got, sm.statsCRC, ErrCorrupt)
	}
	return s, nil
}
