package client_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/metadata"
	"repro/internal/service"
)

// canned is a transport that answers every request with one recorded
// response body, so a test measures the client alone.
type canned []byte

func (body canned) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
	}, nil
}

// queryBody appends recs to a fresh dieventd tenant and records what the
// real handler answers to the query q.
func queryBody(t *testing.T, recs []client.Record, q string) canned {
	t.Helper()
	svc, err := service.New(service.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
		hs.Close()
	}()
	c, err := client.New(client.Config{Base: hs.URL, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/v1/tenants/t/query?q=" + strings.ReplaceAll(q, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("recording the query response: HTTP %d, %v", resp.StatusCode, err)
	}
	return body
}

func observation(i int) client.Record {
	return client.Record{
		Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
		Time:   time.Duration(i) * 40 * time.Millisecond,
		Person: i % 4, Other: -1, Label: "happy", Value: float64(i%1000) / 1000,
	}
}

// TestQueryAllocation: a 100-record answer is ≈ 14 KB on the wire and
// 11 KB of Records; decoding it must not cost a 64 KiB scanner buffer on
// top (the call used to allocate ≈ 100 KB).
func TestQueryAllocation(t *testing.T) {
	recs := make([]client.Record, 100)
	for i := range recs {
		recs[i] = observation(i)
	}
	body := queryBody(t, recs, "frame >= 0")
	c, err := client.New(client.Config{Base: "http://canned", Tenant: "t", HTTP: &http.Client{Transport: body}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := func() {
		got, err := c.Query(ctx, "frame >= 0", client.QueryOpts{Limit: 100})
		if err != nil || len(got) != 100 {
			t.Fatalf("%d records, %v", len(got), err)
		}
	}
	query()
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("a 100-record Query allocates %d bytes", per)
	if per >= 24<<10 {
		t.Fatalf("a 100-record Query allocates %d bytes, want < %d", per, 24<<10)
	}
}

// TestQueryAndFollowDecodeLongLines: a line far longer than the
// scanner's first buffer still decodes, in Query and in Follow.
func TestQueryAndFollowDecodeLongLines(t *testing.T) {
	long := observation(1)
	long.Tags = make(map[string]string)
	for i := 0; i < 300; i++ { // ≈ 300 KB on one line
		long.Tags[fmt.Sprintf("note%03d", i)] = strings.Repeat("x", 1000)
	}
	body := queryBody(t, []client.Record{observation(0), long, observation(2)}, "frame >= 0")
	c, err := client.New(client.Config{Base: "http://canned", Tenant: "t", HTTP: &http.Client{Transport: body}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(context.Background(), "frame >= 0", client.QueryOpts{})
	if err != nil || len(got) != 3 || !reflect.DeepEqual(got[1].Tags, long.Tags) {
		t.Fatalf("Query: %d records, %v", len(got), err)
	}
	fs, err := c.Follow(context.Background(), "frame >= 0")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < 3; i++ {
		rec, err := fs.Next()
		if err != nil || rec.Frame != i || (i == 1 && !reflect.DeepEqual(rec.Tags, long.Tags)) {
			t.Fatalf("Follow: record %d = frame %d, %v", i, rec.Frame, err)
		}
	}
}
