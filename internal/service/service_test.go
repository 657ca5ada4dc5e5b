// Black-box tests of the dieventd HTTP surface, driven through the real
// retrying client (dievent/client) so the wire contract is exercised
// from both ends.
package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/metadata"
	"repro/internal/service"
	"repro/internal/vfs"
)

// testServer bundles a Server, its HTTP listener, and a client factory.
type testServer struct {
	svc  *service.Server
	http *httptest.Server
	root string
}

func newTestServer(t *testing.T, cfg service.Config) *testServer {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx) // kills follow streams so Close doesn't hang on them
		hs.Close()
	})
	return &testServer{svc: svc, http: hs, root: cfg.Root}
}

func (ts *testServer) client(t *testing.T, tenant string, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Base = ts.http.URL
	cfg.Tenant = tenant
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ingestRecord(i int, label string) client.Record {
	return client.Record{
		Kind:     metadata.KindObservation,
		Frame:    i,
		FrameEnd: i + 1,
		Time:     time.Duration(i) * 33 * time.Millisecond,
		Person:   i % 4,
		Other:    -1,
		Label:    label,
		Value:    float64(i),
	}
}

func batch(lo, hi int, label string) []client.Record {
	recs := make([]client.Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		recs = append(recs, ingestRecord(i, label))
	}
	return recs
}

// TestIngestQueryFollowRoundTrip is the basic life of a tenant: batch
// ingest, one-shot query (with order and limit), then a FOLLOW stream
// that sees history and live appends across the seam.
func TestIngestQueryFollowRoundTrip(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	c := ts.client(t, "rig-1", client.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.Append(ctx, batch(0, 200, "smile")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(ctx, batch(200, 300, "frown")); err != nil {
		t.Fatal(err)
	}

	recs, err := c.Query(ctx, "label = 'smile'", client.QueryOpts{Order: "id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("query returned %d records, want 200", len(recs))
	}
	for i, rec := range recs {
		if rec.Frame != i || rec.Label != "smile" {
			t.Fatalf("record %d: frame %d label %q", i, rec.Frame, rec.Label)
		}
	}
	limited, err := c.Query(ctx, "label = 'smile'", client.QueryOpts{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 7 {
		t.Fatalf("limited query returned %d, want 7", len(limited))
	}

	// FOLLOW: history (300 frames of 'smile'+'frown' filtered to
	// person P1 — queries are 1-based, stored Person is 0-based) then
	// live appends.
	fs, err := c.Follow(ctx, "person = 1")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	histWant := 0
	for i := 0; i < 75; i++ { // frames ≡ 0 mod 4 in [0,300)
		rec, err := fs.Next()
		if err != nil {
			t.Fatalf("follow history Next(%d): %v", i, err)
		}
		if rec.Frame != histWant {
			t.Fatalf("follow history frame %d, want %d", rec.Frame, histWant)
		}
		histWant += 4
	}
	if err := c.Append(ctx, batch(300, 320, "wave")); err != nil {
		t.Fatal(err)
	}
	for want := 300; want < 320; want += 4 {
		rec, err := fs.Next()
		if err != nil {
			t.Fatalf("follow live Next: %v", err)
		}
		if rec.Frame != want || rec.Label != "wave" {
			t.Fatalf("follow live frame %d label %q, want %d \"wave\"", rec.Frame, rec.Label, want)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 320 {
		t.Fatalf("stats records = %d, want 320", st.Records)
	}
	if st.Followers != 1 {
		t.Fatalf("stats followers = %d, want 1", st.Followers)
	}
}

// TestTenantIsolation: two tenants, disjoint data, each sees only its
// own.
func TestTenantIsolation(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	ctx := context.Background()
	a := ts.client(t, "rig-a", client.Config{})
	b := ts.client(t, "rig-b", client.Config{})
	if err := a.Append(ctx, batch(0, 10, "only-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(ctx, batch(0, 5, "only-b")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Query(ctx, "label = 'only-a'", client.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("tenant b sees %d of tenant a's records", len(got))
	}
	got, err = a.Query(ctx, "label = 'only-a'", client.QueryOpts{})
	if err != nil || len(got) != 10 {
		t.Fatalf("tenant a query: %d records, err %v", len(got), err)
	}
}

// TestAppendQuota429: a dry token bucket answers 429 with a
// Retry-After, and the client maps exhausted retries to ErrOverloaded.
func TestAppendQuota429(t *testing.T) {
	ts := newTestServer(t, service.Config{AppendRate: 0.001, AppendBurst: 5})
	ctx := context.Background()

	// Raw request first: assert status and header shape.
	body, _ := json.Marshal([]service.WireRecord{{Kind: "observation", Label: "x", Frame: ptr(1)}})
	u := ts.http.URL + "/v1/tenants/rig-1/records"
	// A batch that can never land is refused before the bucket is
	// charged: a buggy client does not burn its quota on it.
	badKind := `[{"kind":"nope","label":"x","frame":1},{"kind":"observation","label":"x","frame":1}]`
	for i := 0; i < 10; i++ {
		resp, err := http.Post(u, "application/json", strings.NewReader(badKind))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad-kind append %d: HTTP %d, want 400", i, resp.StatusCode)
		}
	}
	for i := 0; i < 5; i++ {
		resp, err := http.Post(u, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d within burst: HTTP %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(u, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota append: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Malformed input is still a 400 with the bucket dry (400 before 429).
	for _, bad := range []string{badKind, `[{"kind":"observation"`, `[]`} {
		resp, err := http.Post(u, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("append of %s on a dry bucket: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}

	// A no-retry client surfaces the overload sentinel immediately (a
	// retrying one would honour the bucket's huge Retry-After).
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	err = c.Append(ctx, batch(0, 1, "x"))
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("client over-quota append = %v, want ErrOverloaded", err)
	}
}

func ptr(i int) *int { return &i }

// TestFollowerCap: the per-tenant follower limit refuses the N+1th
// stream with 429 while the first stays live.
func TestFollowerCap(t *testing.T) {
	ts := newTestServer(t, service.Config{MaxFollowers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	if err := c.Append(ctx, batch(0, 3, "x")); err != nil {
		t.Fatal(err)
	}
	fs, err := c.Follow(ctx, "label = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Follow(ctx, "label = 'x'"); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("second follow = %v, want ErrOverloaded (429)", err)
	}
}

// TestENOSPCDegradesNotWedges: an injected ENOSPC on the append path
// flips the tenant to service-level read-only — appends answer 507,
// queries keep serving, healthz reports degraded — instead of wedging.
func TestENOSPCDegradesNotWedges(t *testing.T) {
	ffs := vfs.NewFaultFS()
	var fail atomic.Bool
	ffs.Inject = func(n int, op vfs.Op, path string) error {
		if fail.Load() && (op == vfs.OpWrite || op == vfs.OpSync || op == vfs.OpCreate) {
			return vfs.ErrNoSpace
		}
		return nil
	}
	ts := newTestServer(t, service.Config{FS: ffs})
	ctx := context.Background()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})

	if err := c.Append(ctx, batch(0, 100, "ok")); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	err := c.Append(ctx, batch(100, 200, "post-fault"))
	if !errors.Is(err, client.ErrDegraded) {
		t.Fatalf("append under ENOSPC = %v, want ErrDegraded (507)", err)
	}
	// Sticky: subsequent appends refuse immediately.
	if err := c.Append(ctx, batch(200, 201, "x")); !errors.Is(err, client.ErrDegraded) {
		t.Fatalf("append while degraded = %v, want ErrDegraded", err)
	}
	// The tenant is not wedged: reads still serve the pre-fault data.
	recs, err := c.Query(ctx, "label = 'ok'", client.QueryOpts{})
	if err != nil {
		t.Fatalf("query on degraded tenant: %v", err)
	}
	if len(recs) != 100 {
		t.Fatalf("degraded query returned %d, want 100", len(recs))
	}
	// healthz reports it honestly.
	rep, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", rep.Status)
	}
	found := false
	for _, tn := range rep.Tenants {
		if tn.Tenant == "rig-1" {
			found = true
			if !tn.ReadOnlyDegraded {
				t.Fatal("tenant not marked read-only degraded in healthz")
			}
		}
	}
	if !found {
		t.Fatal("tenant missing from healthz")
	}
}

// TestDiskQuotaDegrades: exceeding MaxDiskBytes flips the tenant
// read-only on the next append.
func TestDiskQuotaDegrades(t *testing.T) {
	ts := newTestServer(t, service.Config{MaxDiskBytes: 8 << 10})
	ctx := context.Background()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	var degraded bool
	for i := 0; i < 100; i++ {
		err := c.Append(ctx, batch(i*100, (i+1)*100, "bulk"))
		if errors.Is(err, client.ErrDegraded) {
			degraded = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !degraded {
		t.Fatal("disk quota never tripped")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ReadOnlyDegraded {
		t.Fatal("stats does not report read-only degradation")
	}
	if _, err := c.Query(ctx, "label = 'bulk'", client.QueryOpts{Limit: 1}); err != nil {
		t.Fatalf("query on quota-degraded tenant: %v", err)
	}
}

// TestQueryTimeoutPropagates: the ?timeout= deadline reaches the
// executor through QueryOpts.Ctx. A microscopic timeout on a large
// scan surfaces as a mid-stream error envelope, not a hang.
func TestQueryTimeoutPropagates(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	ctx := context.Background()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	for i := 0; i < 10; i++ {
		if err := c.Append(ctx, batch(i*1000, (i+1)*1000, "x")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Query(ctx, "label = 'x'", client.QueryOpts{Timeout: time.Nanosecond})
	if err == nil {
		t.Fatal("1ns-deadline query succeeded; deadline did not propagate")
	}
}

// TestDrainGraceful is the headline drain sequence: under an open
// follower with queued records, Drain (1) flips readyz to 503,
// (2) refuses new requests with 503+Retry-After, (3) terminates the
// follower with the queued records first and then a draining envelope,
// (4) seals and releases every tenant so offline Fsck is clean.
func TestDrainGraceful(t *testing.T) {
	root := t.TempDir()
	ts := newTestServer(t, service.Config{Root: root})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	if err := c.Append(ctx, batch(0, 50, "x")); err != nil {
		t.Fatal(err)
	}
	fs, err := c.Follow(ctx, "label = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < 50; i++ { // drain history so the stream is live
		if _, err := fs.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// Queue live records the follower has NOT read yet, then drain.
	if err := c.Append(ctx, batch(50, 60, "x")); err != nil {
		t.Fatal(err)
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- ts.svc.Drain(ctx) }()

	// The killed follower first delivers the 10 queued records, in
	// order, then the draining sentinel.
	for want := 50; want < 60; want++ {
		rec, err := fs.Next()
		if err != nil {
			t.Fatalf("drain swallowed queued record %d: %v", want, err)
		}
		if rec.Frame != want {
			t.Fatalf("queued drain record frame %d, want %d", rec.Frame, want)
		}
	}
	if _, err := fs.Next(); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("follower terminal error = %v, want ErrDraining", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// New work is refused with the draining status.
	if err := c.Append(ctx, batch(60, 61, "x")); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("append while draining = %v, want ErrDraining", err)
	}
	resp, err := http.Get(ts.http.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = HTTP %d, want 503", resp.StatusCode)
	}

	// Leases are released and the store sealed: offline Fsck is clean.
	rep, err := metadata.Fsck(root + "/rig-1")
	if err != nil {
		t.Fatalf("post-drain fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("post-drain fsck not clean:\n%+v", rep)
	}
}

// TestIdleCloseReadOnlyCoexistence: after IdleClose the server releases
// the tenant's writer lease, an out-of-band WithReadOnly open attaches,
// and the next served request waits (WithLockWait) until the tool
// departs instead of failing.
func TestIdleCloseReadOnlyCoexistence(t *testing.T) {
	root := t.TempDir()
	ts := newTestServer(t, service.Config{Root: root, IdleClose: 50 * time.Millisecond, LockWait: 10 * time.Second})
	ctx := context.Background()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	if err := c.Append(ctx, batch(0, 10, "x")); err != nil {
		t.Fatal(err)
	}
	// Wait for the janitor to release the lease (healthz reports
	// open=false without forcing a reopen).
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Tenants) == 1 && !rep.Tenants[0].Open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant never idle-closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Out-of-band read-only tool attaches and sees the data.
	ro, err := metadata.Open(root+"/rig-1", metadata.WithReadOnly())
	if err != nil {
		t.Fatalf("out-of-band read-only open: %v", err)
	}
	got, err := ro.Query("label = 'x'")
	if err != nil || len(got) != 10 {
		t.Fatalf("out-of-band query: %d records, err %v", len(got), err)
	}
	// A served append queues behind the reader's lease, then lands
	// once the tool departs.
	appendDone := make(chan error, 1)
	go func() { appendDone <- c.Append(ctx, batch(10, 11, "x")) }()
	time.Sleep(100 * time.Millisecond) // let the append reach the lock wait
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-appendDone; err != nil {
		t.Fatalf("append after reader departed: %v", err)
	}
}

// TestFollowSpillSlowConsumer: under SpillToDisk a consumer far slower
// than the append burst still receives every record in order — the
// overflow spills and replays instead of killing the stream.
func TestFollowSpillSlowConsumer(t *testing.T) {
	ts := newTestServer(t, service.Config{
		Backpressure: service.SpillToDisk,
		FollowBuffer: 8,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	fs, err := c.Follow(ctx, "label = 'burst'")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Burst far past the live buffer while the consumer sits idle. Pad
	// the records so the pipe's own buffering can't hide the overflow.
	const total = 20000
	for lo := 0; lo < total; lo += 1000 {
		recs := batch(lo, lo+1000, "burst")
		for i := range recs {
			recs[i].Tags = map[string]string{"pad": strings.Repeat("p", 256)}
		}
		if err := c.Append(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < total; want++ {
		rec, err := fs.Next()
		if err != nil {
			t.Fatalf("spill follow Next(%d): %v (slow consumer should not be dropped)", want, err)
		}
		if rec.Frame != want {
			t.Fatalf("spill follow frame %d, want %d", rec.Frame, want)
		}
	}
}

// TestFollowDropLagging: same burst under DropLagging terminates the
// slow stream with the lagging sentinel instead of buffering without
// bound.
func TestFollowDropLagging(t *testing.T) {
	ts := newTestServer(t, service.Config{
		Backpressure: service.DropLagging,
		FollowBuffer: 8,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	fs, err := c.Follow(ctx, "label = 'burst'")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const total = 20000
	for lo := 0; lo < total; lo += 1000 {
		recs := batch(lo, lo+1000, "burst")
		for i := range recs {
			recs[i].Tags = map[string]string{"pad": strings.Repeat("p", 256)}
		}
		if err := c.Append(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for {
		_, err := fs.Next()
		if err != nil {
			if !errors.Is(err, client.ErrLagging) {
				t.Fatalf("drop-lagging terminal = %v after %d records, want ErrLagging", err, got)
			}
			break
		}
		got++
		if got > total {
			t.Fatal("received more records than were appended")
		}
	}
	if got == total {
		t.Fatal("slow consumer received everything; overflow never fired (raise the burst?)")
	}
}

// TestBadInputs covers the 400 surface: bad tenant, bad query, bad
// batch, bad order/limit/timeout.
func TestBadInputs(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.http.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		resp, err := http.Post(ts.http.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		code int
		want int
	}{
		{"bad tenant name", post("/v1/tenants/No%2FGood/records", "[]"), http.StatusBadRequest},
		{"empty batch", post("/v1/tenants/rig-1/records", "[]"), http.StatusBadRequest},
		{"malformed JSON", post("/v1/tenants/rig-1/records", "{"), http.StatusBadRequest},
		{"bad kind", post("/v1/tenants/rig-1/records", `[{"kind":"nope","label":"x"}]`), http.StatusBadRequest},
		{"missing label", post("/v1/tenants/rig-1/records", `[{"kind":"context"}]`), http.StatusBadRequest},
		{"bad kind behind a good record", post("/v1/tenants/rig-1/records", `[{"kind":"context","label":"x"},{"kind":"Context","label":"x"}]`), http.StatusBadRequest},
		{"missing kind", post("/v1/tenants/rig-1/records", `[{"label":"x"}]`), http.StatusBadRequest},
		{"frame out of range", post("/v1/tenants/rig-1/records", `[{"kind":"event","label":"x","frame":9223372036854775808}]`), http.StatusBadRequest},
		{"fractional frame", post("/v1/tenants/rig-1/records", `[{"kind":"event","label":"x","frame":1.5}]`), http.StatusBadRequest},
		{"value out of range", post("/v1/tenants/rig-1/records", `[{"kind":"event","label":"x","frame":1,"value":1e999}]`), http.StatusBadRequest},
		{"non-finite value", post("/v1/tenants/rig-1/records", `[{"kind":"event","label":"x","frame":1,"value":NaN}]`), http.StatusBadRequest},
		{"trailing comma", post("/v1/tenants/rig-1/records", `[{"kind":"event","label":"x","frame":1},]`), http.StatusBadRequest},
		{"inverted interval", post("/v1/tenants/rig-1/records", `[{"kind":"event","label":"x","frame":5,"frame_end":2}]`), http.StatusBadRequest},
		{"bad query", get("/v1/tenants/rig-1/query?q=" + "%3D%3D"), http.StatusBadRequest},
		{"bad order", get("/v1/tenants/rig-1/query?q=label%20%3D%20%27x%27&order=sideways"), http.StatusBadRequest},
		{"bad limit", get("/v1/tenants/rig-1/query?q=label%20%3D%20%27x%27&limit=-2"), http.StatusBadRequest},
		{"bad timeout", get("/v1/tenants/rig-1/query?q=label%20%3D%20%27x%27&timeout=soon"), http.StatusBadRequest},
		{"bad follow query", get("/v1/tenants/rig-1/follow?q="), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if tc.code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, tc.code, tc.want)
		}
	}
	if got := fmt.Sprint(post("/v1/tenants/rig-1/records", `[{"kind":"observation","frame":1,"label":"x"}]`)); got != "200" {
		t.Errorf("valid append after bad inputs: HTTP %s", got)
	}
	// Spellings the codec's fast path declines are still accepted, as
	// encoding/json accepts them: escapes, unknown and case-folded
	// members, nulls, data after the array.
	lenient := ` [ {"Kind":"observation","frame":2,"label":"caf\u00e9","extra":[1,2],"tags":null,"other":null} ] trailing`
	if got := post("/v1/tenants/rig-1/records", lenient); got != http.StatusOK {
		t.Errorf("lenient spelling: HTTP %d, want 200", got)
	}
	c := ts.client(t, "rig-1", client.Config{})
	recs, err := c.Query(context.Background(), "frame = 2", client.QueryOpts{})
	if err != nil || len(recs) != 1 || recs[0].Label != "caf\u00e9" || recs[0].FrameEnd != 3 || recs[0].Tags != nil {
		t.Errorf("lenient spelling stored as %v (err %v)", recs, err)
	}
}

// TestAppendBodyTooLarge413: a body past the 32 MiB cap is answered 413
// (not a 400 that hides "request body too large" in a decode message),
// whatever it holds, and the tenant keeps accepting appends.
func TestAppendBodyTooLarge413(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	u := ts.http.URL + "/v1/tenants/rig-1/records"
	// Valid JSON all the way: an array opened, then whitespace past the cap.
	huge := append([]byte{'['}, bytes.Repeat([]byte{' '}, 32<<20+512)...)
	resp, err := http.Post(u, "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append: HTTP %d (%s), want 413", resp.StatusCode, msg)
	}
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
	if err := c.Append(context.Background(), batch(0, 10, "after")); err != nil {
		t.Fatalf("append after a 413: %v", err)
	}
}

// legacyStoreWithNaN writes a three-record tenant store whose middle
// record holds a NaN Value, as a store written before Validate refused
// them may: the record is appended finite, then its float64 is patched
// on disk (and the entry's CRC with it).
func legacyStoreWithNaN(t *testing.T, dir string) {
	t.Helper()
	const sentinel = 1234.5678
	repo, err := metadata.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{1, sentinel, 3} {
		rec := ingestRecord(i, "legacy")
		rec.Value = v
		if _, err := repo.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	var want [8]byte
	binary.LittleEndian.PutUint64(want[:], math.Float64bits(sentinel))
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(raw, want[:])
		if at < 0 {
			continue
		}
		// Entry: length u32, payload (value at offset 41), CRC-32 u32.
		const valueOff = 8 + 1 + 8 + 8 + 8 + 4 + 4
		start := at - valueOff - 4
		payload := raw[start+4 : start+4+int(binary.LittleEndian.Uint32(raw[start:]))]
		binary.LittleEndian.PutUint64(raw[at:], math.Float64bits(math.NaN()))
		binary.LittleEndian.PutUint32(raw[start+4+len(payload):], crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("sentinel value not found in any segment")
}

// TestUnencodableRecordEndsStreamLoudly: a stored record JSON cannot
// carry (non-finite Value) used to cut query and follow streams short —
// HTTP 200, no terminal envelope, nothing logged — which a client can
// only read as a truncation. Now the stream ends with an "internal"
// envelope naming the record, after everything before it.
func TestUnencodableRecordEndsStreamLoudly(t *testing.T) {
	root := t.TempDir()
	legacyStoreWithNaN(t, filepath.Join(root, "rig-1"))
	var logged atomic.Int32
	ts := newTestServer(t, service.Config{Root: root, Logf: func(string, ...any) { logged.Add(1) }})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})

	recs, err := c.Query(ctx, "label = 'legacy'", client.QueryOpts{Order: "id"})
	if err == nil || !strings.Contains(err.Error(), "record 2 cannot be encoded") {
		t.Fatalf("query over a NaN record: %d records, err %v; want a mid-stream error naming record 2", len(recs), err)
	}
	if len(recs) != 1 || recs[0].ID != 1 {
		t.Fatalf("query delivered %v before the error, want record 1", recs)
	}
	// Records on either side of it stay reachable.
	if recs, err := c.Query(ctx, "value = 3", client.QueryOpts{}); err != nil || len(recs) != 1 || recs[0].ID != 3 {
		t.Fatalf("query past the NaN record: %v, err %v", recs, err)
	}

	fs, err := c.Follow(ctx, "label = 'legacy'")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if rec, err := fs.Next(); err != nil || rec.ID != 1 {
		t.Fatalf("follow first record: %v, err %v", rec, err)
	}
	_, err = fs.Next()
	if err == nil || !strings.Contains(err.Error(), "record 2 cannot be encoded") || !strings.Contains(err.Error(), service.CodeInternal) {
		t.Fatalf("follow over a NaN record ended with %v; want an internal envelope naming record 2", err)
	}
	if logged.Load() < 2 {
		t.Fatalf("server logged %d lines about the unencodable record, want one per stream", logged.Load())
	}
}

// TestAppendOversizeRecord400: a record the store could acknowledge but
// never read back — a payload past the 1 MiB entry bound, or more tags
// than the on-disk uint16 count holds — is refused with 400 and nothing
// of its batch is stored; the tenant keeps ingesting and reopens whole.
func TestAppendOversizeRecord400(t *testing.T) {
	big := make(map[string]string)
	for i := 0; i < 1100; i++ {
		big[fmt.Sprintf("k%04d", i)] = strings.Repeat("v", 1024)
	}
	many := make(map[string]string)
	for i := 0; i < 65537; i++ {
		many[fmt.Sprintf("k%d", i)] = ""
	}
	for name, tags := range map[string]map[string]string{"payload-over-entry-bound": big, "tag-count-over-uint16": many} {
		t.Run(name, func(t *testing.T) {
			ts := newTestServer(t, service.Config{})
			c := ts.client(t, "rig-1", client.Config{MaxRetries: -1})
			ctx := context.Background()
			if err := c.Append(ctx, batch(0, 3, "before")); err != nil {
				t.Fatal(err)
			}
			bad := ingestRecord(3, "oversize")
			bad.Tags = tags
			body, err := json.Marshal([]service.WireRecord{service.ToWire(ingestRecord(4, "rider")), service.ToWire(bad)})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.http.URL+"/v1/tenants/rig-1/records", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("oversize record: HTTP %d (%.200s), want 400", resp.StatusCode, msg)
			}
			if err := c.Append(ctx, batch(5, 8, "after")); err != nil {
				t.Fatalf("append after the refusal: %v", err)
			}
			dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			if err := ts.svc.Drain(dctx); err != nil {
				t.Fatal(err)
			}
			repo, err := metadata.Open(filepath.Join(ts.root, "rig-1"), metadata.WithReadOnly())
			if err != nil {
				t.Fatalf("reopening the drained tenant: %v", err)
			}
			defer repo.Close()
			if repo.Len() != 6 {
				t.Fatalf("tenant reopened with %d records, want the 6 acknowledged ones", repo.Len())
			}
		})
	}
}

// countingWriter is a ResponseWriter that records each Write's size.
type countingWriter struct {
	header http.Header
	writes []int
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return len(p), nil
}

// TestQueryWritesAnswerInBlocks: handleQuery hands a point answer to the
// connection in one Write, closing envelope included, and a large one in
// blocks of at least 16 KiB — streamed, not gathered whole.
func TestQueryWritesAnswerInBlocks(t *testing.T) {
	ts := newTestServer(t, service.Config{AppendRate: 1 << 30, AppendBurst: 1 << 31})
	c := ts.client(t, "blocks", client.Config{})
	const n = 100_000
	for lo := 0; lo < n; lo += 10_000 {
		if err := c.Append(context.Background(), batch(lo, lo+10_000, "happy")); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(limit int) []int {
		t.Helper()
		w := &countingWriter{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/tenants/blocks/query?q=frame+%%3E%%3D+0&limit=%d", limit), nil)
		ts.svc.ServeHTTP(w, req)
		return w.writes
	}
	if writes := serve(100); len(writes) != 1 {
		t.Fatalf("a 100-record answer left in %d writes (%v), want 1", len(writes), writes)
	}
	writes := serve(0)
	total := 0
	for i, sz := range writes {
		total += sz
		if sz < 16<<10 && i != len(writes)-1 {
			t.Fatalf("write %d of %d carries %d bytes, want ≥ %d", i, len(writes), sz, 16<<10)
		}
	}
	if len(writes) < total/(17<<10) {
		t.Fatalf("a %d-byte answer left in %d writes: gathered, not streamed", total, len(writes))
	}
}
