// Package service implements dieventd: a long-running multi-tenant
// ingest/query HTTP server over the metadata repository (DESIGN.md §11).
// Each tenant is an isolated repository under the service root; the
// server holds the writer lease, applies admission control and
// per-tenant quotas, streams queries and FOLLOW subscriptions, and
// drains gracefully on shutdown.
package service

import (
	"fmt"
	"time"

	"repro/internal/metadata"
)

// WireRecord is the JSON shape of a metadata.Record on the HTTP API.
// Frame-axis and participant fields are pointers so "absent" (→ the
// repository's -1 convention) is distinguishable from an explicit 0.
//
// The type is the format's schema and its reference implementation:
// records in flight are written and read by the codec (codec.go), which
// is held byte for byte to what encoding/json makes of a WireRecord and
// hands it every input it declines. It must therefore never grow
// MarshalJSON/UnmarshalJSON methods — the oracle would become the code
// under test.
type WireRecord struct {
	ID       uint64            `json:"id,omitempty"`
	Kind     string            `json:"kind"`
	Frame    *int              `json:"frame,omitempty"`
	FrameEnd *int              `json:"frame_end,omitempty"`
	TimeUS   int64             `json:"time_us,omitempty"`
	Person   *int              `json:"person,omitempty"`
	Other    *int              `json:"other,omitempty"`
	Label    string            `json:"label"`
	Value    float64           `json:"value,omitempty"`
	Tags     map[string]string `json:"tags,omitempty"`
}

// ToWire converts a repository record to its wire shape.
func ToWire(rec metadata.Record) WireRecord {
	w := WireRecord{
		ID:     rec.ID,
		Kind:   rec.Kind.String(),
		TimeUS: rec.Time.Microseconds(),
		Label:  rec.Label,
		Value:  rec.Value,
		Tags:   rec.Tags,
	}
	if rec.Frame >= 0 {
		f := rec.Frame
		w.Frame = &f
	}
	if rec.FrameEnd >= 0 {
		fe := rec.FrameEnd
		w.FrameEnd = &fe
	}
	if rec.Person >= 0 {
		p := rec.Person
		w.Person = &p
	}
	if rec.Other >= 0 {
		o := rec.Other
		w.Other = &o
	}
	return w
}

// FromWire converts a wire record to the repository's shape. The ID is
// ignored — the repository assigns it. Validation is left to
// Record.Validate on the append path.
func FromWire(w WireRecord) (metadata.Record, error) {
	kind, err := metadata.ParseKind(w.Kind)
	if err != nil {
		return metadata.Record{}, fmt.Errorf("service: record kind: %w", err)
	}
	rec := metadata.Record{
		Kind:     kind,
		Frame:    -1,
		FrameEnd: -1,
		Time:     time.Duration(w.TimeUS) * time.Microsecond,
		Person:   -1,
		Other:    -1,
		Label:    w.Label,
		Value:    w.Value,
		Tags:     w.Tags,
	}
	if w.Frame != nil {
		rec.Frame = *w.Frame
		if w.FrameEnd == nil {
			rec.FrameEnd = rec.Frame + 1
		}
	}
	if w.FrameEnd != nil {
		rec.FrameEnd = *w.FrameEnd
	}
	if w.Person != nil {
		rec.Person = *w.Person
	}
	if w.Other != nil {
		rec.Other = *w.Other
	}
	return rec, nil
}

// Envelope is one NDJSON line on a streaming response (query or
// follow): either a record or a terminal error. Code distinguishes the
// documented terminal reasons so clients can map them back to
// sentinels without string matching.
type Envelope struct {
	Record *WireRecord `json:"record,omitempty"`
	// Error is the human-readable terminal reason; the envelope
	// carrying it is the last line of the stream.
	Error string `json:"error,omitempty"`
	// Code classifies terminal errors: "lagging" (follower overflow),
	// "draining" (server shutdown), "ended" (read-only tail exhausted),
	// "closed" (repository closed), "internal".
	Code string `json:"code,omitempty"`
	// EOF marks the clean end of a bounded stream (one-shot query).
	EOF bool `json:"eof,omitempty"`
}

// Terminal-error codes on streaming envelopes.
const (
	CodeLagging  = "lagging"
	CodeDraining = "draining"
	CodeEnded    = "ended"
	CodeClosed   = "closed"
	CodeInternal = "internal"
)

// TenantStatus is one tenant's entry in /healthz and /v1/.../stats.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	// Open reports whether the server currently holds the tenant's
	// repository open (idle tenants are closed to release the writer
	// lease for out-of-band read-only tools).
	Open bool `json:"open"`
	// ReadOnlyDegraded reports the service-level degradation: the
	// tenant exceeded its disk quota or hit ENOSPC and now rejects
	// appends (507) while continuing to serve reads.
	ReadOnlyDegraded bool `json:"read_only_degraded,omitempty"`
	// Records and DiskBytes mirror Repository.Stats.
	Records   int   `json:"records"`
	DiskBytes int64 `json:"disk_bytes"`
	// SpillBytes is the tenant's current follower-spill disk usage.
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// Followers is the number of open FOLLOW streams.
	Followers int `json:"followers"`
	// Health is the repository's own degradation report.
	Health *metadata.Health `json:"health,omitempty"`
}

// HealthReport is the /healthz body.
type HealthReport struct {
	// Status is "ok", "degraded", or "draining".
	Status  string         `json:"status"`
	Tenants []TenantStatus `json:"tenants,omitempty"`
}
