package service

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
)

func spillRecord(i int) metadata.Record {
	return metadata.Record{
		Kind:     metadata.KindObservation,
		Frame:    i,
		FrameEnd: i + 1,
		Time:     time.Duration(i) * time.Millisecond,
		Person:   i % 4,
		Other:    -1,
		Label:    "hit",
		Value:    float64(i),
		Tags:     map[string]string{"pad": strings.Repeat("x", 64)},
	}
}

// TestDiskSpillOrderAndReclaim pushes enough frames through a
// diskSpill to force multiple chunk flushes and refills, then drains
// and checks order, quota return, and file reclamation.
func TestDiskSpillOrderAndReclaim(t *testing.T) {
	var mu sync.Mutex
	var charged int64
	d, err := newDiskSpill(t.TempDir(), func(delta int64) error {
		mu.Lock()
		charged += delta
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const total = 20000 // ~150B/frame ≫ spillChunk, forces file traffic
	for i := 0; i < total; i++ {
		rec := spillRecord(i)
		rec.ID = uint64(i + 1)
		if err := d.Divert(rec); err != nil {
			t.Fatalf("Divert(%d): %v", i, err)
		}
	}
	if d.wOff == 0 {
		t.Fatal("no chunk ever reached the file; chunking is broken or the test is too small")
	}
	for i := 0; i < total; i++ {
		rec, ok, err := d.TryNext()
		if err != nil {
			t.Fatalf("TryNext(%d): %v", i, err)
		}
		if !ok {
			t.Fatalf("TryNext(%d): empty with %d frames outstanding", i, total-i)
		}
		if rec.Frame != i || rec.ID != uint64(i+1) {
			t.Fatalf("frame %d id %d, want frame %d id %d (order broken)", rec.Frame, rec.ID, i, i+1)
		}
	}
	if _, ok, err := d.TryNext(); ok || err != nil {
		t.Fatalf("TryNext after drain = (ok=%v, err=%v), want empty", ok, err)
	}
	mu.Lock()
	left := charged
	mu.Unlock()
	if left != 0 {
		t.Fatalf("quota charge after full drain = %d, want 0", left)
	}
	if d.wOff != 0 {
		t.Fatalf("file not reclaimed after catch-up: wOff=%d", d.wOff)
	}
}

// TestDiskSpillMatchesWire: a record that detours through the spool
// reaches the follower exactly as one that went straight onto the HTTP
// stream — tags, non-ASCII and escaped strings, absent axes, the
// repository-assigned ID — whether its frame takes the decoder's fast
// path or declines to encoding/json.
func TestDiskSpillMatchesWire(t *testing.T) {
	d, err := newDiskSpill(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recs := []metadata.Record{
		spillRecord(1),
		{Kind: metadata.KindEvent, Frame: 100, FrameEnd: 160, Time: 4 * time.Second, Person: 1, Other: 3,
			Label: "caf\u00e9 \u65e5\u672c\u8a9e", Value: 1e-7, Tags: map[string]string{"camera": "C2", "\u00fc": "\u00e9"}},
		{Kind: metadata.KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1,
			Label: "say \"hi\" <b>&\n\u2028", Tags: map[string]string{"menu": "prix fixe & wine", "tab": "\t"}},
		{Kind: metadata.KindAnnotation, Frame: 0, FrameEnd: 0, Time: -1500 * time.Microsecond, Person: 0, Other: 0, Label: "zero", Value: -2.5},
	}
	var dec Decoder
	for i := range recs {
		recs[i].ID = uint64(1000 + i)
		if err := d.Divert(recs[i]); err != nil {
			t.Fatalf("Divert(%d): %v", i, err)
		}
	}
	for i := range recs {
		got, ok, err := d.TryNext()
		if err != nil || !ok {
			t.Fatalf("TryNext(%d): ok=%v err=%v", i, ok, err)
		}
		line, err := appendRecordLine(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, env, err := dec.Line(line)
		if err != nil || env != nil {
			t.Fatalf("wire round trip of record %d: env %v, err %v", i, env, err)
		}
		if !reflect.DeepEqual(got, want) || got.ID != recs[i].ID {
			t.Fatalf("record %d via spill:\n got %#v\nwant %#v (the HTTP wire round trip)", i, got, want)
		}
		if !reflect.DeepEqual(got, recs[i]) {
			t.Fatalf("record %d changed across the spill:\n got %#v\nwant %#v", i, got, recs[i])
		}
	}
}

// TestDiskSpillRefusesUnencodable: a record the wire cannot carry is
// refused by Divert (ending that subscription) without leaving half a
// frame in the spool or a charge on the tenant.
func TestDiskSpillRefusesUnencodable(t *testing.T) {
	var used int64
	d, err := newDiskSpill(t.TempDir(), func(delta int64) error { used += delta; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Divert(spillRecord(0)); err != nil {
		t.Fatal(err)
	}
	charged := used
	bad := spillRecord(1)
	bad.Value = math.Inf(1)
	if err := d.Divert(bad); err == nil {
		t.Fatal("Divert accepted a non-finite Value")
	}
	if used != charged {
		t.Fatalf("refused frame left %d bytes charged", used-charged)
	}
	if err := d.Divert(spillRecord(2)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{0, 2} {
		rec, ok, err := d.TryNext()
		if err != nil || !ok || rec.Frame != want {
			t.Fatalf("after a refused frame: frame %d ok=%v err=%v, want frame %d", rec.Frame, ok, err, want)
		}
	}
}

// TestDiskSpillInterleaved alternates producer and consumer so frames
// cross the file/pending seam in every combination.
func TestDiskSpillInterleaved(t *testing.T) {
	d, err := newDiskSpill(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	next := 0 // next frame to divert
	want := 0 // next frame expected out
	for round := 0; round < 200; round++ {
		for i := 0; i < 37; i++ {
			rec := spillRecord(next)
			if err := d.Divert(rec); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 23; i++ {
			rec, ok, err := d.TryNext()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("round %d: empty with %d outstanding", round, next-want)
			}
			if rec.Frame != want {
				t.Fatalf("round %d: frame %d, want %d", round, rec.Frame, want)
			}
			want++
		}
	}
	for want < next {
		rec, ok, err := d.TryNext()
		if err != nil || !ok {
			t.Fatalf("final drain at %d: ok=%v err=%v", want, ok, err)
		}
		if rec.Frame != want {
			t.Fatalf("final drain: frame %d, want %d", rec.Frame, want)
		}
		want++
	}
}

// TestDiskSpillQuota: a charge-hook refusal propagates out of Divert
// so the subscription terminates with the tenant's quota error.
func TestDiskSpillQuota(t *testing.T) {
	var used int64
	limit := int64(1024)
	d, err := newDiskSpill(t.TempDir(), func(delta int64) error {
		if delta > 0 && used+delta > limit {
			return fmt.Errorf("quota: %w", metadata.ErrLagging)
		}
		used += delta
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var derr error
	n := 0
	for i := 0; i < 100; i++ {
		if derr = d.Divert(spillRecord(i)); derr != nil {
			break
		}
		n++
	}
	if derr == nil {
		t.Fatal("quota never enforced")
	}
	if !errors.Is(derr, metadata.ErrLagging) {
		t.Fatalf("Divert over quota = %v, want ErrLagging chain", derr)
	}
	// Already-accepted frames still drain in order.
	for i := 0; i < n; i++ {
		rec, ok, err := d.TryNext()
		if err != nil || !ok || rec.Frame != i {
			t.Fatalf("drain %d: (%d, %v, %v)", i, rec.Frame, ok, err)
		}
	}
}

// TestDiskSpillCloseReturnsQuota: closing with frames outstanding
// returns the whole charge.
func TestDiskSpillCloseReturnsQuota(t *testing.T) {
	var used int64
	d, err := newDiskSpill(t.TempDir(), func(delta int64) error {
		used += delta
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Divert(spillRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if used == 0 {
		t.Fatal("nothing charged")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if used != 0 {
		t.Fatalf("charge after Close = %d, want 0", used)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

// TestTokenBucket pins the refill/refusal arithmetic.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 5) // 10 tokens/s, burst 5
	now := time.Unix(1000, 0)
	if ok, _ := b.take(5, now); !ok {
		t.Fatal("burst refused")
	}
	ok, wait := b.take(1, now)
	if ok {
		t.Fatal("empty bucket granted")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("wait = %v, want ~100ms for 1 token at 10/s", wait)
	}
	// After the advertised wait, the token is there.
	if ok, _ := b.take(1, now.Add(wait)); !ok {
		t.Fatal("token absent after advertised wait")
	}
	// Refill caps at burst.
	if ok, _ := b.take(5, now.Add(time.Hour)); !ok {
		t.Fatal("burst absent after long idle")
	}
	if ok, _ := b.take(1, now.Add(time.Hour)); ok {
		t.Fatal("bucket exceeded burst cap")
	}
}

// TestAdmission pins the bounded in-flight gate.
func TestAdmission(t *testing.T) {
	s, err := New(Config{Root: t.TempDir(), MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.admit() || !s.admit() {
		t.Fatal("slots refused below the bound")
	}
	if s.admit() {
		t.Fatal("admitted past MaxInflight")
	}
	s.unadmit()
	if !s.admit() {
		t.Fatal("slot not returned")
	}
}

// TestTenantNameValidation: names are path components; anything that
// could traverse is refused.
func TestTenantNameValidation(t *testing.T) {
	s, err := New(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "a/b", "a\\b", ".hidden", "UPPER", strings.Repeat("a", 65)} {
		if _, err := s.tenant(bad); !errors.Is(err, errBadTenant) {
			t.Fatalf("tenant(%q) = %v, want errBadTenant", bad, err)
		}
	}
	for _, good := range []string{"a", "rig-07", "cam_3", "0abc"} {
		if _, err := s.tenant(good); err != nil {
			t.Fatalf("tenant(%q) = %v", good, err)
		}
	}
}
