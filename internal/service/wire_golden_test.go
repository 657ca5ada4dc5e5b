package service_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/metadata"
	"repro/internal/service"
)

// goldenRecords covers the wire format's corners: every kind; frame
// axes absent, zero and negative; zero, negative and absent time;
// participants absent and zero; tags (sorted, escaped, non-ASCII); every
// string escape class; exponent-form, shortest-digits and omitted
// values.
func goldenRecords() []metadata.Record {
	return []metadata.Record{
		{Kind: metadata.KindContext, Frame: -1, FrameEnd: -1, Person: -1, Other: -1, Label: "location",
			Tags: map[string]string{"value": "meeting room", "menu": "<prix fixe> & wine", "Zone": "north"}},
		{Kind: metadata.KindObservation, Frame: 0, FrameEnd: 1, Person: 0, Other: -1, Label: "happy", Value: 0.83},
		{Kind: metadata.KindObservation, Frame: 7, FrameEnd: 8, Time: 280 * time.Millisecond, Person: 3, Other: -1, Label: "neutral"},
		{Kind: metadata.KindEvent, Frame: 100, FrameEnd: 160, Time: 4 * time.Second, Person: 1, Other: 3, Label: "eye-contact", Value: 1,
			Tags: map[string]string{"camera": "C2"}},
		{Kind: metadata.KindAnnotation, Frame: 999999, FrameEnd: 999999, Time: 11*time.Hour + 6*time.Minute + 39960*time.Millisecond,
			Person: 7, Other: 7, Label: "note", Value: -1e300},
		{Kind: metadata.KindEvent, Frame: 12, FrameEnd: 13, Person: -1, Other: -1,
			Label: "say \"hi\" \\ <b>&\t\n\x01\x7f \u2028\u2029 caf\u00e9 \u65e5\u672c\u8a9e \U0001F37D", Value: 0.5},
		{Kind: metadata.KindObservation, Frame: 13, FrameEnd: 14, Time: 999 * time.Nanosecond, Person: 1, Other: -1, Label: "tiny", Value: 1e-7},
		{Kind: metadata.KindObservation, Frame: 14, FrameEnd: 15, Time: -1500 * time.Microsecond, Person: 2, Other: -1, Label: "huge", Value: 1e21},
		{Kind: metadata.KindObservation, Frame: 15, FrameEnd: 16, Time: 600 * time.Millisecond, Person: 0, Other: 0, Label: "sum", Value: 0.30000000000000004},
		{Kind: metadata.KindContext, Frame: -5, FrameEnd: -1, Person: -1, Other: -1, Label: "negative-axis", Value: 999999999999999900000},
		{Kind: metadata.KindObservation, Frame: 16, FrameEnd: 17, Person: 1, Other: -1, Label: "bad\xffutf8", Value: 0.000001,
			Tags: map[string]string{"caf\u00e9": "\u00fc", "quote\"d": "back\\slash", "bad\xc3": "\xed\xa0\x80"}},
		{Kind: metadata.KindEvent, Frame: 0, FrameEnd: 0, Person: -1, Other: -1, Label: "zero", Value: math.Copysign(0, -1)},
	}
}

// goldenSections reads testdata/wire_golden.txt: the bytes the last
// encoding/json-based commit (7476be8) put on the wire for
// goldenRecords — the body its client.Append posted, and its server's
// raw query and follow responses after that append. It was captured
// from that commit's own server and is never regenerated from this
// code: old clients and servers must keep interoperating byte for byte.
func goldenSections(t *testing.T) (body, query, follow []byte) {
	t.Helper()
	raw, err := os.ReadFile("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]*[]byte{"# append body": &body, "# query response": &query, "# follow response, history lines": &follow}
	var cur *[]byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if p, ok := parts[strings.TrimSuffix(string(line), "\n")]; ok {
			cur = p
		} else if cur != nil {
			*cur = append(*cur, line...)
		}
	}
	if len(body) == 0 || len(query) == 0 || len(follow) == 0 {
		t.Fatal("testdata/wire_golden.txt: missing section")
	}
	return bytes.TrimSuffix(body, []byte("\n")), query, follow
}

// captureBody records the last request body a client sent.
type captureBody struct{ last []byte }

func (c *captureBody) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		c.last = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWireGolden pins wire compatibility from both ends: client.Append
// posts the golden body, and the server answers a query and a follow
// over those records with the golden lines.
func TestWireGolden(t *testing.T) {
	wantBody, wantQuery, wantFollow := goldenSections(t)
	ts := newTestServer(t, service.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	capture := &captureBody{}
	c := ts.client(t, "golden", client.Config{HTTP: &http.Client{Transport: capture}})
	if err := c.Append(ctx, goldenRecords()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(capture.last, wantBody) {
		t.Fatalf("client.Append body differs from the golden bytes:\n got %s\nwant %s", capture.last, wantBody)
	}

	get := func(path string) *http.Response {
		resp, err := http.Get(ts.http.URL + "/v1/tenants/golden/" + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		return resp
	}
	resp := get("query?q=id+%3E%3D+1&order=id")
	gotQuery, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotQuery, wantQuery) {
		t.Fatalf("query response differs from the golden bytes:\n got %s\nwant %s", gotQuery, wantQuery)
	}

	resp = get("follow?q=id+%3E%3D+1")
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var gotFollow []byte
	for range goldenRecords() {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("follow stream: %v after %s", err, gotFollow)
		}
		gotFollow = append(gotFollow, line...)
	}
	if !bytes.Equal(gotFollow, wantFollow) {
		t.Fatalf("follow response differs from the golden bytes:\n got %s\nwant %s", gotFollow, wantFollow)
	}
}
