package metadata

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"time"
)

// Record wire format (little-endian), one record per log entry:
//
//	length  uint32  — payload length (excluding length and crc)
//	payload:
//	  id       uint64
//	  kind     uint8
//	  frame    int64
//	  frameEnd int64
//	  timeNs   int64
//	  person   int32
//	  other    int32
//	  value    float64
//	  labelLen uint8, label bytes
//	  tagCount uint16, tagCount × (kLen uint8, k, vLen uint16, v)
//	crc     uint32 — CRC-32 (IEEE) of payload
//
// The length prefix lets recovery skip to the next entry; the CRC
// detects torn or bit-rotted writes.

// appendRecord encodes r into buf (reusing capacity) and returns it.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	p := len(buf)

	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:8]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}

	put64(r.ID)
	buf = append(buf, uint8(r.Kind))
	put64(uint64(int64(r.Frame)))
	put64(uint64(int64(r.FrameEnd)))
	put64(uint64(r.Time.Nanoseconds()))
	put32(uint32(int32(r.Person)))
	put32(uint32(int32(r.Other)))
	put64(math.Float64bits(r.Value))
	buf = append(buf, uint8(len(r.Label)))
	buf = append(buf, r.Label...)

	keys := make([]string, 0, len(r.Tags))
	for k := range r.Tags {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic encoding
	var t16 [2]byte
	binary.LittleEndian.PutUint16(t16[:], uint16(len(keys)))
	buf = append(buf, t16[:]...)
	for _, k := range keys {
		v := r.Tags[k]
		buf = append(buf, uint8(len(k)))
		buf = append(buf, k...)
		binary.LittleEndian.PutUint16(t16[:], uint16(len(v)))
		buf = append(buf, t16[:]...)
		buf = append(buf, v...)
	}

	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(payload)
	var c4 [4]byte
	binary.LittleEndian.PutUint32(c4[:], crc)
	return append(buf, c4[:]...)
}

// maxEntry bounds a single entry's payload so recovery never allocates
// absurd buffers from a corrupt length prefix. Validate refuses records
// that would encode past it (or past the uint16 tag count), so nothing
// acknowledged is ever unreadable.
const maxEntry = 1 << 20

// Entry geometry: the fixed payload fields up to and including labelLen,
// the smallest payload (empty label, no tags) and the smallest entry.
const (
	fixedPayload = 8 + 1 + 8 + 8 + 8 + 4 + 4 + 8 + 1
	minPayload   = fixedPayload + 2
	minEntry     = 4 + minPayload + 4
	maxTags      = math.MaxUint16
)

// labelTable interns the label strings of one decoder: a segment's few
// dozen distinct labels are allocated once and every other record shares
// them. Each decoder owns its table, so parallel replay needs no lock. A
// nil table interns nothing (the test oracle).
type labelTable map[string]string

func (t labelTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	s := string(b)
	if t != nil {
		t[s] = s
	}
	return s
}

// decodePayload parses one CRC-verified payload. Nothing in the returned
// record aliases p.
func decodePayload(p []byte, labels labelTable) (Record, error) {
	var rec Record
	if len(p) < fixedPayload {
		return rec, fmt.Errorf("metadata: short payload: %w", ErrCorrupt)
	}
	le := binary.LittleEndian
	rec.ID = le.Uint64(p)
	if rec.Kind = Kind(p[8]); rec.Kind >= numKinds { // byKind is indexed by it
		return rec, fmt.Errorf("metadata: kind %d: %w", p[8], ErrCorrupt)
	}
	rec.Frame = int(int64(le.Uint64(p[9:])))
	rec.FrameEnd = int(int64(le.Uint64(p[17:])))
	rec.Time = time.Duration(int64(le.Uint64(p[25:])))
	rec.Person = int(int32(le.Uint32(p[33:])))
	rec.Other = int(int32(le.Uint32(p[37:])))
	rec.Value = math.Float64frombits(le.Uint64(p[41:]))
	off := fixedPayload
	need := func(n int) bool { return off+n <= len(p) }
	lblLen := int(p[off-1])
	if !need(lblLen + 2) {
		return rec, fmt.Errorf("metadata: truncated label: %w", ErrCorrupt)
	}
	rec.Label = labels.intern(p[off : off+lblLen])
	off += lblLen
	tagCount := int(le.Uint16(p[off:]))
	off += 2
	if tagCount*3 > len(p)-off { // a tag is at least 3 bytes: no map sized by a lying count
		return rec, fmt.Errorf("metadata: truncated tag: %w", ErrCorrupt)
	}
	if tagCount > 0 {
		rec.Tags = make(map[string]string, tagCount)
	}
	for i := 0; i < tagCount; i++ {
		if !need(1) {
			return rec, fmt.Errorf("metadata: truncated tag: %w", ErrCorrupt)
		}
		kl := int(p[off])
		off++
		if !need(kl + 2) {
			return rec, fmt.Errorf("metadata: truncated tag key: %w", ErrCorrupt)
		}
		k := string(p[off : off+kl])
		off += kl
		vl := int(le.Uint16(p[off:]))
		off += 2
		if !need(vl) {
			return rec, fmt.Errorf("metadata: truncated tag value: %w", ErrCorrupt)
		}
		rec.Tags[k] = string(p[off : off+vl])
		off += vl
	}
	if off != len(p) {
		return rec, fmt.Errorf("metadata: %d trailing payload bytes: %w", len(p)-off, ErrCorrupt)
	}
	return rec, nil
}
