package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/service"
)

// flushRecorder is a ResponseWriter that counts the lines written and
// logs, for each Flush, how many lines had been written when it ran.
type flushRecorder struct {
	mu      sync.Mutex
	header  http.Header
	lines   int
	flushes []int
}

func (w *flushRecorder) Header() http.Header { return w.header }
func (w *flushRecorder) WriteHeader(int)     {}
func (w *flushRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lines += bytes.Count(p, []byte("\n"))
	return len(p), nil
}
func (w *flushRecorder) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushes = append(w.flushes, w.lines)
}

// waitFlushAt waits until a Flush runs with n lines written and returns
// the flush log at that moment.
func (w *flushRecorder) waitFlushAt(t *testing.T, n int) []int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		log := append([]int(nil), w.flushes...)
		w.mu.Unlock()
		if len(log) > 0 && log[len(log)-1] == n {
			return log
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flush after %d lines; flushes at %v", n, log)
		}
	}
}

// serveFollow runs one follow request for q on tenant rig-1 straight
// through the server's handler; stop cancels it and waits for the
// handler to return.
func serveFollow(ts *testServer, q string) (w *flushRecorder, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	w = &flushRecorder{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/v1/tenants/rig-1/follow?q="+url.QueryEscape(q), nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts.svc.ServeHTTP(w, req)
	}()
	return w, func() { cancel(); <-done }
}

// TestFollowFlushesOncePerBurst: a follower writes the matches that are
// already there — the history, then each appended batch — and flushes
// once per burst, not once per record.
func TestFollowFlushesOncePerBurst(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	c := ts.client(t, "rig-1", client.Config{})
	ctx := context.Background()
	if err := c.Append(ctx, batch(0, 50, "burst")); err != nil {
		t.Fatal(err)
	}
	w, stop := serveFollow(ts, "label = 'burst'")
	defer stop()
	// The header flush, then one flush after the 50 history lines.
	if log := w.waitFlushAt(t, 50); fmt.Sprint(log) != "[0 50]" {
		t.Fatalf("history burst flushed at %v, want [0 50]", log)
	}
	if err := c.Append(ctx, batch(50, 80, "burst")); err != nil {
		t.Fatal(err)
	}
	if log := w.waitFlushAt(t, 80); fmt.Sprint(log) != "[0 50 80]" {
		t.Fatalf("live burst flushed at %v, want [0 50 80]", log)
	}
}

// TestFollowFlushesLastMatchBeforeParking: when a batch ends in records
// the query does not match, the last match is flushed before the cursor
// parks, with no later append to push it out.
func TestFollowFlushesLastMatchBeforeParking(t *testing.T) {
	ts := newTestServer(t, service.Config{})
	c := ts.client(t, "rig-1", client.Config{})
	ctx := context.Background()
	if err := c.Append(ctx, batch(0, 1, "other")); err != nil {
		t.Fatal(err)
	}
	w, stop := serveFollow(ts, "label = 'burst'")
	defer stop()
	w.waitFlushAt(t, 0)
	recs := append(batch(1, 6, "burst"), batch(6, 26, "other")...)
	if err := c.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	w.waitFlushAt(t, 5)
}
