package metadata

import "time"

// SegmentHealth describes one quarantined sealed segment: why strict
// replay rejected it and the hole its missing records leave in the
// frame/time axes.
type SegmentHealth struct {
	// Name is the quarantined segment's file name.
	Name string
	// Err is the strict-replay failure that caused the quarantine.
	Err string
	// Records and Bytes are the manifest's claims for the segment —
	// the upper bound on what the quarantine cost.
	Records int
	Bytes   int64
	// FrameGap brackets the hole: the frame of the last surviving
	// record before the quarantined range and of the first after it
	// (-1 when the hole touches the start or end of the store).
	FrameGap [2]int
	// TimeGap is the same bracket on the time axis (zero at the edges).
	TimeGap [2]time.Duration
}

// Health is the repository's degradation report: what recovery did at
// open, which segments are quarantined, and whether the append path is
// currently operating around a fault. A zero Degraded Health is the
// normal state.
type Health struct {
	// Degraded reports whether anything below is non-nominal.
	Degraded bool
	// Quarantined lists sealed segments isolated by WithQuarantine, in
	// manifest order.
	Quarantined []SegmentHealth
	// Recovery lists the recovery actions the most recent Open (or
	// fault repair) performed, oldest first: torn-tail truncation,
	// orphan sweeps, active-segment rewrites,
	// statistics-sidecar regeneration.
	Recovery []string
	// StatsMissing lists sealed segments with no usable statistics
	// sidecar (pre-stats repositories, damaged sidecars a read-only open
	// cannot regenerate). Queries stay exact but those segments are
	// never pruned; a writable open repairs them. Informational, not
	// Degraded — a pre-stats repository is healthy, just unoptimised.
	StatsMissing []string
	// PendingDirSync reports a cutover whose directory fsync has not
	// yet landed; appends retry it before acknowledging more records.
	PendingDirSync bool
	// WriteFault reports a failed active-segment write (e.g. ENOSPC)
	// that the next append will repair by rewriting the active segment
	// from memory.
	WriteFault bool
}

// Health returns the repository's degradation report. In-memory
// repositories are always healthy.
func (r *Repository) Health() (Health, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return Health{}, ErrClosed
	}
	h := Health{
		Quarantined:    append([]SegmentHealth(nil), r.health.Quarantined...),
		Recovery:       append([]string(nil), r.health.Recovery...),
		PendingDirSync: r.pendingDirSync,
		WriteFault:     r.writeFault,
	}
	for i := 0; i < len(r.segs)-1; i++ {
		if s := &r.segs[i]; s.sealed && !s.quarantined && s.stats == nil {
			h.StatsMissing = append(h.StatsMissing, s.name)
		}
	}
	h.Degraded = len(h.Quarantined) > 0 || h.PendingDirSync || h.WriteFault
	return h, nil
}
