package service

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"repro/internal/metadata"
)

// Backpressure selects what happens to a FOLLOW subscriber whose live
// queue overflows (DESIGN.md §11 policy matrix).
type Backpressure int

const (
	// DropLagging drops the overflowing subscription: the follower
	// drains what was queued, then terminates with ErrLagging. This is
	// the repository's native behaviour — cheap, bounded, lossy for the
	// slow consumer only.
	DropLagging Backpressure = iota
	// SpillToDisk diverts the overflow to a per-follower temp file and
	// replays it in order, bounded by the tenant's disk quota. Slow
	// consumers trade disk for completeness; a consumer slower than the
	// append rate for long enough to exhaust the quota still terminates
	// with ErrLagging.
	SpillToDisk
)

// String names the policy for flags and logs.
func (b Backpressure) String() string {
	switch b {
	case SpillToDisk:
		return "spill"
	default:
		return "drop"
	}
}

// ParseBackpressure maps a flag value to its policy.
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "drop", "drop-lagging", "":
		return DropLagging, nil
	case "spill", "spill-to-disk":
		return SpillToDisk, nil
	}
	return 0, fmt.Errorf("service: unknown backpressure policy %q (want drop|spill)", s)
}

// spillChunk is the pending-buffer size at which Divert flushes to the
// file. Divert runs under the repository's write lock, so the common
// case must be an in-memory append; one buffered write per chunk keeps
// the lock hold time amortised.
const spillChunk = 256 << 10

// diskSpill implements metadata.TailOverflow over a per-follower temp
// file: Divert appends length-prefixed JSON frames (buffered, flushed
// in chunks), TryNext replays them in order. Frames live in three
// places, consumed oldest-first: the file's unread span, then the
// pending write buffer. Once the reader fully catches up the file is
// truncated so a bursty follower reclaims its disk between bursts.
//
// charge is the tenant's quota hook: called with the byte delta every
// time disk usage changes. A charge failure propagates out of Divert,
// terminating the subscription with the tenant's quota error.
type diskSpill struct {
	mu      sync.Mutex
	f       *os.File
	pending []byte // encoded frames not yet written to the file
	wOff    int64  // file size (all flushed frames)
	rOff    int64  // file read offset
	rbuf    []byte // decoded-from-file frames awaiting TryNext
	rpos    int    // consumption offset into rbuf
	dec     Decoder
	ready   chan struct{}
	charged int64 // bytes currently charged to the tenant
	charge  func(delta int64) error
	closed  bool
}

// newDiskSpill creates the spill's backing file eagerly — in the HTTP
// handler, outside the repository lock — so Divert never pays file
// creation under the lock. charge may be nil (no accounting).
func newDiskSpill(dir string, charge func(delta int64) error) (*diskSpill, error) {
	f, err := os.CreateTemp(dir, "follow-spill-*.log")
	if err != nil {
		return nil, fmt.Errorf("service: creating spill file: %w", err)
	}
	// Unlink immediately: the fd keeps the file alive, and a crashed
	// server leaks no spill files.
	os.Remove(f.Name())
	if charge == nil {
		charge = func(int64) error { return nil }
	}
	return &diskSpill{f: f, ready: make(chan struct{}, 1), charge: charge}, nil
}

// Divert implements metadata.TailOverflow. It runs under the
// repository's write lock: the common case encodes the record straight
// into an in-memory buffer (the wire codec: no reflection, no
// intermediate); every spillChunk bytes it issues one buffered file
// write.
func (d *diskSpill) Divert(rec metadata.Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("service: spill closed: %w", metadata.ErrLagging)
	}
	// Frame = 4-byte length, then the wire object, built in place at the
	// end of pending and cut off again if it is refused.
	off := len(d.pending)
	buf, err := appendRecord(append(d.pending, 0, 0, 0, 0), &rec)
	d.pending = buf[:off]
	if err != nil {
		return fmt.Errorf("service: encoding spill frame: %w", err)
	}
	need := int64(len(buf) - off)
	// Reserve quota before buffering so the tenant's bound covers
	// pending bytes too, not just what reached the file.
	if err := d.charge(need); err != nil {
		return err
	}
	d.charged += need
	binary.BigEndian.PutUint32(buf[off:], uint32(need-4))
	d.pending = buf
	if len(d.pending) >= spillChunk {
		if err := d.flushLocked(); err != nil {
			return err
		}
	}
	d.notifyLocked()
	return nil
}

// flushLocked appends the pending buffer to the file. Caller holds mu.
func (d *diskSpill) flushLocked() error {
	if len(d.pending) == 0 {
		return nil
	}
	n, err := d.f.WriteAt(d.pending, d.wOff)
	if err != nil {
		return fmt.Errorf("service: writing spill file: %w", err)
	}
	d.wOff += int64(n)
	d.pending = d.pending[:0]
	return nil
}

// notifyLocked wakes a parked consumer (capacity-1 pattern; see the
// TailOverflow contract). Caller holds mu.
func (d *diskSpill) notifyLocked() {
	select {
	case d.ready <- struct{}{}:
	default:
	}
}

// TryNext implements metadata.TailOverflow: pop the oldest diverted
// record without blocking. File frames precede pending frames, so when
// the read buffer runs dry it refills from the file's unread span
// first and takes the pending buffer only once the file is consumed.
func (d *diskSpill) TryNext() (metadata.Record, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return metadata.Record{}, false, fmt.Errorf("service: spill closed: %w", metadata.ErrLagging)
	}
	if d.rpos >= len(d.rbuf) {
		if err := d.refillLocked(); err != nil {
			return metadata.Record{}, false, err
		}
		if d.rpos >= len(d.rbuf) {
			return metadata.Record{}, false, nil
		}
	}
	if len(d.rbuf)-d.rpos < 4 {
		return metadata.Record{}, false, fmt.Errorf("service: truncated spill frame header")
	}
	n := int(binary.BigEndian.Uint32(d.rbuf[d.rpos:]))
	start := d.rpos + 4
	if start+n > len(d.rbuf) {
		return metadata.Record{}, false, fmt.Errorf("service: truncated spill frame (%d of %d bytes)", len(d.rbuf)-start, n)
	}
	// The frame carries the repository-assigned ID; record keeps it.
	rec, err := d.dec.record(d.rbuf[start : start+n])
	if err != nil {
		return metadata.Record{}, false, fmt.Errorf("service: decoding spill frame: %w", err)
	}
	d.rpos = start + n
	// Return the quota as frames are consumed, and reclaim the file
	// once the reader has fully caught up.
	d.charge(-int64(4 + n))
	d.charged -= int64(4 + n)
	if d.rpos >= len(d.rbuf) && d.rOff >= d.wOff && len(d.pending) == 0 {
		d.rbuf = d.rbuf[:0]
		d.rpos = 0
		d.truncateLocked()
	}
	return rec, true, nil
}

// refillLocked loads the next batch of frames into the read buffer:
// the file's unread span first, else the pending buffer. Caller holds
// mu.
func (d *diskSpill) refillLocked() error {
	d.rbuf = d.rbuf[:0]
	d.rpos = 0
	if d.rOff < d.wOff {
		span := d.wOff - d.rOff
		if span > spillChunk*2 {
			span = spillChunk * 2
		}
		buf := make([]byte, span)
		n, err := d.f.ReadAt(buf, d.rOff)
		if err != nil && int64(n) != span {
			return fmt.Errorf("service: reading spill file: %w", err)
		}
		// Keep only whole frames; the remainder is picked up next refill.
		whole := 0
		for whole+4 <= n {
			fl := int(binary.BigEndian.Uint32(buf[whole:]))
			if whole+4+fl > n {
				break
			}
			whole += 4 + fl
		}
		if whole == 0 && d.rOff+int64(n) < d.wOff {
			return fmt.Errorf("service: spill frame exceeds refill window")
		}
		d.rbuf = append(d.rbuf, buf[:whole]...)
		d.rOff += int64(whole)
		return nil
	}
	if len(d.pending) > 0 {
		d.rbuf = append(d.rbuf, d.pending...)
		d.pending = d.pending[:0]
	}
	return nil
}

// truncateLocked reclaims the file after a full catch-up. Caller holds
// mu; best-effort (a failure just leaves dead bytes until Close).
func (d *diskSpill) truncateLocked() {
	if d.wOff == 0 {
		return
	}
	if err := d.f.Truncate(0); err == nil {
		d.wOff = 0
		d.rOff = 0
	}
}

// Ready implements metadata.TailOverflow.
func (d *diskSpill) Ready() <-chan struct{} { return d.ready }

// Close releases the file and returns any outstanding quota charge.
// Idempotent.
func (d *diskSpill) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.charged > 0 {
		d.charge(-d.charged)
		d.charged = 0
	}
	err := d.f.Close()
	return err
}
