package service_test

import (
	"context"
	"math"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/service"
)

// benchServer stands up a dieventd service over httptest with quotas
// opened wide — the benchmarks measure the ingest/query path, not the
// admission limiter.
func benchServer(b *testing.B) (*service.Server, string) {
	b.Helper()
	svc, err := service.New(service.Config{
		Root:        b.TempDir(),
		MaxInflight: 1024,
		AppendRate:  1 << 30,
		AppendBurst: min(1<<31, math.MaxInt),
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(svc)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			b.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return svc, hs.URL
}

func benchClient(b *testing.B, base, tenant string) *client.Client {
	b.Helper()
	c, err := client.New(client.Config{Base: base, Tenant: tenant, MaxRetries: 2, Backoff: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkServiceAppend measures sustained ingest throughput through
// the whole stack — HTTP, admission, quota, wire decode, AppendBatch —
// reporting the headline appends/s (records per second, not batches).
func BenchmarkServiceAppend(b *testing.B) {
	_, base := benchServer(b)
	c := benchClient(b, base, "bench")
	ctx := context.Background()
	const batchSize = 500
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := c.Append(ctx, batch(i*batchSize, (i+1)*batchSize, "bench")); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*batchSize/elapsed.Seconds(), "appends/s")
	}
}

// BenchmarkServiceQueryUnderLoad measures query latency while four
// ingest clients append continuously to the same tenant — the paper's
// "query the event while it is still being recorded" shape — and
// reports the p50/p99 of the individual query round-trips.
func BenchmarkServiceQueryUnderLoad(b *testing.B) {
	_, base := benchServer(b)
	ctx := context.Background()

	// Seed enough history that queries do real scan work.
	seed := benchClient(b, base, "bench")
	const seeded = 20_000
	for lo := 0; lo < seeded; lo += 500 {
		if err := seed.Append(ctx, batch(lo, lo+500, "bench")); err != nil {
			b.Fatal(err)
		}
	}

	// Concurrent ingest load for the duration of the measurement.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := benchClient(b, base, "bench")
			for lo := seeded + w*10_000_000; ; lo += 250 {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Append(ctx, batch(lo, lo+250, "load")); err != nil {
					return // drain/teardown race; the queries are the measurement
				}
			}
		}(w)
	}

	c := benchClient(b, base, "bench")
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := c.Query(ctx, "label = 'bench' AND value >= 100", client.QueryOpts{Limit: 50}); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
	}
}
