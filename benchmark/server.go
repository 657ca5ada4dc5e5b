package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dievent/client"
	"repro/internal/metadata"
	"repro/internal/service"
	"repro/internal/vfs"
)

const tenant = "rig-1"

// spanHeader carries "<request id>:<parent span id>" from the
// benchmark's client transport to its handler wrapper on traced cycles,
// so the server-side span joins the client call that caused it.
const spanHeader = "X-Bench-Span"

type spanRef struct{ req, parent int }

type spanKey struct{}

// withSpan marks ctx so requests made under it carry the span
// reference. With tracing off (req 0) ctx is returned unchanged.
func withSpan(ctx context.Context, req, parent int) context.Context {
	if req == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{req, parent})
}

// tagTransport adds the span header to requests whose context carries
// a span reference.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(ref.req)+":"+strconv.Itoa(ref.parent))
	}
	return t.base.RoundTrip(r)
}

// handled is one request as the handler wrapper saw it.
type handled struct {
	start, end time.Time
}

// meter wraps the service handler: it times every append and query
// inside the server (the service layer without HTTP transit or client
// work), counts refusals, and on traced cycles records the handler
// spans.
type meter struct {
	next http.Handler
	tr   *tracer

	mu      sync.Mutex
	appends []time.Duration
	queries []time.Duration
	refused int
	// byReq maps a traced request id to its handler interval; the live
	// phase reads it to start follow.deliver where the handler ended.
	byReq map[int]handled
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps FOLLOW streaming through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *meter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	m.next.ServeHTTP(sw, r)
	end := time.Now()

	route := ""
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/records"):
		route = "service.handle_append"
	case strings.HasSuffix(r.URL.Path, "/query"):
		route = "service.handle_query"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch sw.status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		m.refused++
	}
	switch route {
	case "service.handle_append":
		m.appends = append(m.appends, end.Sub(start))
	case "service.handle_query":
		m.queries = append(m.queries, end.Sub(start))
	default:
		return
	}
	if m.tr == nil {
		return
	}
	if req, parent, ok := parseSpanHeader(r.Header.Get(spanHeader)); ok {
		m.tr.add(route, parent, req, start, end)
		m.byReq[req] = handled{start, end}
	}
}

func parseSpanHeader(h string) (req, parent int, ok bool) {
	a, b, found := strings.Cut(h, ":")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.Atoi(a)
	parent, err2 := strconv.Atoi(b)
	return req, parent, err1 == nil && err2 == nil
}

// take returns and clears the handler timings gathered so far.
func (m *meter) take() (appends, queries []time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	appends, queries = m.appends, m.queries
	m.appends, m.queries = nil, nil
	return appends, queries
}

func (m *meter) handledReq(req int) (handled, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.byReq[req]
	return h, ok
}

// node is one cycle's dieventd: a fresh service.Server behind a real
// net/http server on a loopback port, plus the transport its clients
// share.
type node struct {
	svc    *service.Server
	meter  *meter
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
}

func startNode(root string, tr *tracer, fsys vfs.FS) (*node, error) {
	svc, err := service.New(service.Config{
		Root:     root,
		FS:       fsys,
		RepoOpts: []metadata.Option{metadata.WithSegmentSize(segmentSize)},
		// Quotas opened wide, as in the repository's own service
		// benchmarks: the phases measure the ingest and query path, not
		// the limiter. service.refused reports if it ever engages.
		AppendRate:  1 << 30,
		AppendBurst: 1 << 31,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		svc:    svc,
		meter:  &meter{next: svc, tr: tr, byReq: map[int]handled{}},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxIdleConnsPerHost: 2},
	}
	n.hs = &http.Server{Handler: n.meter}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// client returns a dieventd client for the benchmark tenant. Every
// client of a node shares one transport, so a phase uses as many
// connections as it has concurrent callers.
func (n *node) client() (*client.Client, error) {
	return client.New(client.Config{
		Base: n.base, Tenant: tenant,
		HTTP:       &http.Client{Transport: tagTransport{n.tr}},
		MaxRetries: 2, Backoff: time.Millisecond,
	})
}

// stop drains the service (timed by the caller), closes the HTTP
// server and waits for its goroutine.
func (n *node) stop() (drain time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	err = n.svc.Drain(ctx)
	drain = time.Since(t0)
	n.tr.CloseIdleConnections()
	if cerr := n.hs.Close(); err == nil {
		err = cerr
	}
	if serr := <-n.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = fmt.Errorf("http server: %w", serr)
	}
	return drain, err
}
