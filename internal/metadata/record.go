// Package metadata implements DiEvent's metadata repository (paper
// §II-E): durable storage for collected (time-invariant context) and
// extracted (per-frame observations, detected events) metadata, with
// inverted and temporal indexes and a small query language so scenes can
// be retrieved "w.r.t. a particular context" with a rich vocabulary.
//
// The engine is an embedded append-only store: records are appended to
// the active segment of a CRC-protected segmented log (fixed-size
// segments plus a checksummed MANIFEST, see DESIGN.md §5), kept in
// memory with secondary indexes, and recovered by replay on open —
// sealed segments in parallel, with a corrupt tail on the active
// segment truncated rather than fatal.
package metadata

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Kind classifies records.
type Kind uint8

// Record kinds.
const (
	// KindContext is time-invariant event metadata (location, menu,
	// occasion, participants).
	KindContext Kind = iota
	// KindObservation is per-frame extracted metadata (emotion, gaze
	// direction, detection confidence).
	KindObservation
	// KindEvent is a detected interval or instant (eye contact, shot
	// boundary, scene, alert).
	KindEvent
	// KindAnnotation is free-form human annotation.
	KindAnnotation

	numKinds
)

var kindNames = [numKinds]string{"context", "observation", "event", "annotation"}

// String names the kind.
func (k Kind) String() string {
	if int(k) >= int(numKinds) {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// ParseKind maps a name to its Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("metadata: unknown kind %q: %w", s, ErrBadQuery)
}

// Record is one unit of metadata. A Record is immutable once appended;
// the ID is assigned by the repository.
type Record struct {
	// ID is the repository-assigned sequence number (1-based).
	ID uint64
	// Kind classifies the record.
	Kind Kind
	// Frame is the frame index the record refers to, or -1 for
	// time-invariant records. For interval events, Frame is the start
	// and FrameEnd the exclusive end.
	Frame int
	// FrameEnd is the exclusive end frame for intervals (== Frame+1
	// for instants, -1 for time-invariant records).
	FrameEnd int
	// Time is the timestamp of Frame.
	Time time.Duration
	// Person is the primary participant ID, or -1.
	Person int
	// Other is the secondary participant (eye-contact partner), or -1.
	Other int
	// Label is the record's vocabulary term ("happy", "eye-contact",
	// "shot-boundary", "scene", "dominance", …).
	Label string
	// Value is a numeric payload (confidence, score, count).
	Value float64
	// Tags carries free-form key→value metadata (camera, location…).
	Tags map[string]string
}

// Validate checks structural invariants before append.
func (r Record) Validate() error {
	if int(r.Kind) >= int(numKinds) {
		return fmt.Errorf("metadata: kind %d: %w", r.Kind, ErrBadRecord)
	}
	if r.Label == "" {
		return fmt.Errorf("metadata: empty label: %w", ErrBadRecord)
	}
	if len(r.Label) > 255 {
		return fmt.Errorf("metadata: label %d bytes exceeds 255: %w", len(r.Label), ErrBadRecord)
	}
	if r.Kind != KindContext && r.Frame < 0 {
		return fmt.Errorf("metadata: %v record without frame: %w", r.Kind, ErrBadRecord)
	}
	if r.FrameEnd >= 0 && r.FrameEnd < r.Frame {
		return fmt.Errorf("metadata: interval [%d,%d) inverted: %w", r.Frame, r.FrameEnd, ErrBadRecord)
	}
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) { // JSON cannot carry it: it would cut every stream it is on
		return fmt.Errorf("metadata: non-finite value %v: %w", r.Value, ErrBadRecord)
	}
	// Replay refuses an entry whose payload exceeds maxEntry and the tag
	// count is a uint16 on disk: a record past either bound would be
	// acknowledged and then unreadable — taking every record after it in
	// its segment with it. Tagless records cannot get near either.
	if len(r.Tags) > maxTags {
		return fmt.Errorf("metadata: %d tags exceed %d: %w", len(r.Tags), maxTags, ErrBadRecord)
	}
	size := minPayload + len(r.Label)
	for k, v := range r.Tags {
		if k == "" || len(k) > 255 || len(v) > 1024 {
			return fmt.Errorf("metadata: bad tag %q: %w", k, ErrBadRecord)
		}
		size += 1 + len(k) + 2 + len(v)
	}
	if size > maxEntry {
		return fmt.Errorf("metadata: record encodes to %d bytes, over the %d-byte entry bound: %w", size, maxEntry, ErrBadRecord)
	}
	return nil
}

// Package errors.
var (
	ErrBadRecord = errors.New("metadata: bad record")
	ErrBadQuery  = errors.New("metadata: bad query")
	ErrClosed    = errors.New("metadata: repository closed")
	ErrCorrupt   = errors.New("metadata: corrupt log")
	// ErrLocked reports that another process holds a conflicting lease
	// on the repository directory (see Open and WithReadOnly).
	ErrLocked = errors.New("metadata: repository locked by another process")
	// ErrReadOnly rejects mutations on a repository opened with
	// WithReadOnly.
	ErrReadOnly = errors.New("metadata: repository opened read-only")
	// ErrQuarantined rejects operations (Compact) that would need the
	// records of a segment quarantined by WithQuarantine.
	ErrQuarantined = errors.New("metadata: repository has quarantined segments")
	// ErrTailEnded terminates a tail cursor on a read-only repository
	// once its history is exhausted: no writer can exist in that
	// process, so the live phase can never fire and blocking would
	// block forever. It is the cursor's natural end (like io.EOF), not
	// a failure — TailCursor.Close does not report it.
	ErrTailEnded = errors.New("metadata: tail ended, repository is read-only (no live feed)")
)

// String renders a record compactly.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %v %q", r.ID, r.Kind, r.Label)
	if r.Frame >= 0 {
		if r.FrameEnd > r.Frame+1 {
			fmt.Fprintf(&b, " frames[%d,%d)", r.Frame, r.FrameEnd)
		} else {
			fmt.Fprintf(&b, " frame %d", r.Frame)
		}
	}
	if r.Person >= 0 {
		fmt.Fprintf(&b, " P%d", r.Person+1)
	}
	if r.Other >= 0 {
		fmt.Fprintf(&b, "↔P%d", r.Other+1)
	}
	if r.Value != 0 {
		fmt.Fprintf(&b, " v=%.3f", r.Value)
	}
	if len(r.Tags) > 0 {
		keys := make([]string, 0, len(r.Tags))
		for k := range r.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, r.Tags[k])
		}
	}
	return b.String()
}
