package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metadata"
)

// maxAppendBody bounds one ingest request's body.
const maxAppendBody = 32 << 20

// routes wires the API. Go 1.22 pattern routing carries the method and
// the {tenant} wildcard.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/records", s.handleAppend)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/follow", s.handleFollow)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleStats)
}

// ServeHTTP implements http.Handler: health probes bypass admission
// (they must answer precisely when the server is overloaded or
// draining); everything else passes the admission gate — refused with
// 503 while draining and 429 at MaxInflight, both with Retry-After so
// well-behaved clients back off instead of hammering.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
		s.mux.ServeHTTP(w, r)
		return
	}
	if s.draining.Load() {
		retryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	if !s.admit() {
		retryAfter(w, time.Second)
		httpError(w, http.StatusTooManyRequests, "service: at capacity, retry later")
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Done()
	admitted := &admissionToken{s: s}
	defer admitted.release()
	r = r.WithContext(context.WithValue(r.Context(), admissionKey{}, admitted))
	s.mux.ServeHTTP(w, r)
}

// admissionToken lets the follow handler release its admission slot
// once the stream is established (long-lived streams are bounded by
// MaxFollowers, not MaxInflight).
type admissionToken struct {
	s        *Server
	released bool
}

type admissionKey struct{}

func (a *admissionToken) release() {
	if !a.released {
		a.released = true
		a.s.unadmit()
	}
}

// retryAfter stamps the Retry-After header (whole seconds, rounded up,
// minimum 1).
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// appendScratch is what one append request needs and no later one must
// see: the body bytes, the decoded batch, the decoder's string table.
// AppendBatch copies every record (retaining only its Label string and
// Tags map, which the decoder never points into body), so all three
// are reusable once it returns. A query borrows it for out alone, the
// response lines it has encoded and not yet written.
type appendScratch struct {
	body bytes.Buffer
	recs []metadata.Record
	dec  Decoder
	out  []byte
}

// Scratch grown past these by one huge batch is dropped, not pooled.
const (
	maxPooledBody = 4 << 20
	maxPooledRecs = 1 << 15
)

// handleAppend is batched ingest: a JSON array of records, appended
// atomically-per-record under one lock hold (AppendBatch). The body is
// read whole (capped at maxAppendBody, 413 beyond) into pooled scratch
// and decoded by the wire codec straight into records. Refusals, in
// order: 400 on malformed input — bad JSON or an unknown kind, so a
// batch that can never land costs its sender no quota — and on an
// empty batch, 507 when the tenant is degraded read-only (disk quota
// or ENOSPC), 429 when the tenant's token bucket is dry (Retry-After
// says when to come back).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("tenant"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc := s.scratch.Get().(*appendScratch)
	defer func() {
		if sc.body.Cap() <= maxPooledBody && cap(sc.recs) <= maxPooledRecs {
			s.scratch.Put(sc)
		}
	}()
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxAppendBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("service: append body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("service: reading records: %v", err))
		return
	}
	recs, err := sc.dec.batch(sc.body.Bytes(), sc.recs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc.recs = recs
	if len(recs) == 0 {
		httpError(w, http.StatusBadRequest, "service: empty batch")
		return
	}
	if t.isDegraded() {
		httpError(w, http.StatusInsufficientStorage, "service: tenant degraded to read-only (disk quota/ENOSPC)")
		return
	}
	if ok, wait := t.bucket.take(float64(len(recs)), s.cfg.now()); !ok {
		retryAfter(w, wait)
		httpError(w, http.StatusTooManyRequests, "service: append quota exhausted")
		return
	}
	repo, err := t.acquire(r.Context(), s)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.release(s.cfg.now())
	if err := repo.AppendBatch(recs); err != nil {
		s.noteAppendError(t, err)
		switch {
		case isNoSpace(err):
			httpError(w, http.StatusInsufficientStorage, fmt.Sprintf("service: append: %v", err))
		case errors.Is(err, metadata.ErrBadRecord):
			httpError(w, http.StatusBadRequest, fmt.Sprintf("service: append: %v", err))
		default:
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("service: append: %v", err))
		}
		return
	}
	s.overQuota(t, repo)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"appended": len(recs)})
}

// parseQueryOpts reads limit/order/timeout from the URL.
func parseQueryOpts(r *http.Request) (metadata.QueryOpts, context.CancelFunc, error) {
	var opts metadata.QueryOpts
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, nil, fmt.Errorf("service: bad limit %q", v)
		}
		opts.Limit = n
	}
	switch v := q.Get("order"); v {
	case "", "frame":
		opts.Order = metadata.OrderFrame
	case "id":
		opts.Order = metadata.OrderID
	default:
		return opts, nil, fmt.Errorf("service: bad order %q (want frame|id)", v)
	}
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return opts, nil, fmt.Errorf("service: bad timeout %q", v)
		}
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	opts.Ctx = ctx
	return opts, cancel, nil
}

// handleQuery executes a one-shot query and streams matches as NDJSON
// envelopes, ending with {"eof":true}. The request context (plus the
// optional ?timeout=) propagates into the executor via QueryOpts.Ctx,
// so a gone client cancels the worker pool instead of scanning on.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("tenant"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	q := r.URL.Query().Get("q")
	expr, _, err := metadata.ParseFollow(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("service: %v", err))
		return
	}
	opts, cancel, err := parseQueryOpts(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()
	repo, err := t.acquire(r.Context(), s)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.release(s.cfg.now())
	it, err := repo.QueryExprIter(expr, opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("service: %v", err))
		return
	}
	defer it.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Lines gather in pooled scratch and leave queryFlushBytes at a time:
	// a point answer, its closing envelope included, is one Write — not
	// one per record into net/http's 4 KiB buffer — and a large result
	// still streams.
	sc := s.scratch.Get().(*appendScratch)
	out := sc.out[:0]
	defer func() {
		if cap(out) <= maxPooledBody {
			sc.out = out
			s.scratch.Put(sc)
		}
	}()
	end := Envelope{EOF: true}
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		n := len(out)
		if out, err = appendRecordLine(out, &rec); err != nil {
			out, end = out[:n], s.unencodable(t, rec.ID, err)
			break
		}
		if len(out) >= queryFlushBytes {
			if _, err := w.Write(out); err != nil {
				return // client gone
			}
			out = out[:0]
		}
	}
	if err := it.Err(); err != nil {
		end = Envelope{Error: err.Error(), Code: CodeInternal}
	}
	last, _ := json.Marshal(end) // strings and a bool: cannot fail
	out = append(append(out, last...), '\n')
	w.Write(out)
}

// queryFlushBytes is how much of a query's answer handleQuery gathers
// before writing it out.
const queryFlushBytes = 16 << 10

// unencodable is the terminal envelope of a stream that met a record
// the wire cannot carry (a non-finite Value; Validate refuses them, but
// a store written before it did may hold one). Naming the record beats
// cutting the stream short, which reads as a truncation.
func (s *Server) unencodable(t *tenant, id uint64, err error) Envelope {
	s.cfg.Logf("tenant %s: record %d cannot be encoded: %v", t.name, id, err)
	return Envelope{Error: fmt.Sprintf("service: record %d cannot be encoded: %v", id, err), Code: CodeInternal}
}

// handleFollow upgrades to a live NDJSON stream over Repository.Tail:
// history first, then matching appends as they land, one envelope per
// line, flushed per record. The cursor reads the tenant's record store
// at its own pace, so a slow client is never dropped and costs the
// server no buffer. The stream ends with a terminal envelope —
// "draining" (server shutdown), "closed" (repository closed) — or
// silently when the client goes away.
func (s *Server) handleFollow(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("tenant"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	expr, _, err := metadata.ParseFollow(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("service: %v", err))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "service: streaming unsupported")
		return
	}
	if !t.reserveFollower(s.cfg.MaxFollowers) {
		retryAfter(w, time.Second)
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("service: tenant follower limit (%d) reached", s.cfg.MaxFollowers))
		return
	}
	defer t.releaseFollower()
	repo, err := t.acquire(r.Context(), s)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.release(s.cfg.now())

	cur, err := repo.Tail(expr, metadata.TailOpts{})
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("service: %v", err))
		return
	}
	defer cur.Close()

	// The stream is up: hand the admission slot back (long-lived
	// followers are bounded by MaxFollowers) and watch both the client
	// and the drain signal.
	if tok, ok := r.Context().Value(admissionKey{}).(*admissionToken); ok {
		tok.release()
	}
	// Drain terminates the follower via the cursor's own kill contract:
	// Kill(ErrDraining) lets Next deliver every match appended before
	// the drain, then surface the drain sentinel — deterministic, unlike
	// cancelling the context, which cuts the stream wherever it is.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.drainCh:
			cur.Kill(ErrDraining)
		case <-ctx.Done():
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	var line []byte
	// Matches that are already there go out as one burst: write while
	// TryNext yields, flush once, then park in Next.
	for {
		rec, ok, err := cur.TryNext(ctx)
		if !ok && err == nil {
			flusher.Flush()
			rec, err = cur.Next(ctx)
		}
		if err != nil {
			enc.Encode(Envelope{Error: err.Error(), Code: followCode(err)})
			flusher.Flush()
			return
		}
		if line, err = appendRecordLine(line[:0], &rec); err != nil {
			enc.Encode(s.unencodable(t, rec.ID, err))
			flusher.Flush()
			return
		}
		if _, err := w.Write(line); err != nil {
			return // client gone
		}
	}
}

// followCode maps a terminal cursor error to its envelope code.
func followCode(err error) string {
	switch {
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, metadata.ErrTailEnded):
		return CodeEnded
	case errors.Is(err, metadata.ErrClosed):
		return CodeClosed
	default:
		return CodeInternal
	}
}

// handleStats reports one tenant's status (repository statistics,
// health, quota state).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("tenant"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Pin the repo so Records/DiskBytes/Health are populated even if
	// the tenant was idle-closed.
	if _, err := t.acquire(r.Context(), s); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer t.release(s.cfg.now())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t.status())
}

// handleHealthz is the liveness+honesty probe: always 200 while the
// process serves, with a body that reports per-tenant degradation
// (service-level read-only, repository Health) truthfully.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rep := HealthReport{Status: "ok"}
	if s.draining.Load() {
		rep.Status = "draining"
	}
	for _, t := range s.tenantList() {
		st := t.status()
		rep.Tenants = append(rep.Tenants, st)
		if rep.Status == "ok" && (st.ReadOnlyDegraded || (st.Health != nil && st.Health.Degraded)) {
			rep.Status = "degraded"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// handleReadyz is the load-balancer probe: 503 once draining starts so
// traffic moves away while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		retryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ready\"}\n"))
}
