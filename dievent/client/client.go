// Package client is the Go client for dieventd (DESIGN.md §11): typed
// ingest/query/follow calls over the HTTP API with context deadlines,
// exponential backoff with full jitter honouring Retry-After, and a
// strict idempotency discipline — explicit server refusals (429/503)
// are retried for every operation because the server rejected the
// request before applying it, while ambiguous transport failures are
// retried only on safe (read) operations, never on appends.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/metadata"
	"repro/internal/service"
)

// Record is the client-side record type (the repository's own).
type Record = metadata.Record

// Sentinel errors mapped from terminal stream envelopes and refusal
// statuses once retries are exhausted.
var (
	// ErrLagging ends a Follow stream whose server-side queue (or
	// spill quota) overflowed; re-subscribe to resume from history.
	ErrLagging = metadata.ErrLagging
	// ErrDraining reports the server is shutting down; retry against
	// another instance or after the restart.
	ErrDraining = errors.New("client: server draining")
	// ErrOverloaded reports admission/quota refusals that persisted
	// through every retry.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrDegraded reports the tenant is read-only degraded (disk
	// quota or ENOSPC); appends will fail until an operator intervenes.
	ErrDegraded = errors.New("client: tenant degraded read-only")
	// ErrEnded marks the clean end of a follow against a read-only
	// repository (no live phase).
	ErrEnded = errors.New("client: follow ended")
)

// Config tunes a Client.
type Config struct {
	// Base is the server's base URL (e.g. "http://127.0.0.1:8080").
	Base string
	// Tenant is the tenant every call addresses.
	Tenant string
	// HTTP is the transport (default: a client with sane timeouts for
	// unary calls; streaming calls strip the overall timeout).
	HTTP *http.Client
	// MaxRetries bounds retry attempts after the first try (default 4;
	// negative = no retries).
	MaxRetries int
	// Backoff is the base backoff step (default 100ms). Attempt n
	// sleeps Retry-After + rand(0, Backoff·2ⁿ), capped at MaxBackoff
	// (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// Client calls one tenant's dieventd API. Safe for concurrent use.
type Client struct {
	cfg Config
}

// New builds a Client with defaults applied.
func New(cfg Config) (*Client, error) {
	if cfg.Base == "" {
		return nil, errors.New("client: Config.Base is required")
	}
	if cfg.Tenant == "" {
		return nil, errors.New("client: Config.Tenant is required")
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	return &Client{cfg: cfg}, nil
}

// retryable classifies a response status: explicit refusals the server
// issued before doing any work.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// backoff sleeps before retry attempt (1-based), honouring the
// server's Retry-After as a floor and adding full jitter on top of the
// exponential step. Returns ctx.Err if the deadline lands first.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	step := c.cfg.Backoff << (attempt - 1)
	if step > c.cfg.MaxBackoff {
		step = c.cfg.MaxBackoff
	}
	sleep := retryAfter + rand.N(step)
	t := time.NewTimer(sleep)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads the Retry-After header (seconds form).
func parseRetryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// do runs one request with the retry discipline. body is re-sent from
// the byte slice on each attempt. retryTransport permits retrying
// ambiguous transport errors (safe operations only — for appends the
// request may have been applied, so ambiguity is surfaced, not
// retried). The caller owns the returned response body.
func (c *Client) do(ctx context.Context, method, u string, body []byte, retryTransport bool) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("client: building request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.cfg.HTTP.Do(req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, u, err)
			if !retryTransport {
				return nil, lastErr
			}
		case retryable(resp.StatusCode):
			ra := parseRetryAfter(resp)
			msg := readError(resp)
			lastErr = fmt.Errorf("client: %s (HTTP %d): %w", msg, resp.StatusCode, refusalErr(resp.StatusCode))
			if attempt >= c.cfg.MaxRetries {
				return nil, lastErr
			}
			if err := c.backoff(ctx, attempt+1, ra); err != nil {
				return nil, err
			}
			continue
		default:
			return resp, nil
		}
		if attempt >= c.cfg.MaxRetries {
			return nil, lastErr
		}
		if err := c.backoff(ctx, attempt+1, 0); err != nil {
			return nil, err
		}
	}
}

// refusalErr maps a refusal status to its sentinel.
func refusalErr(status int) error {
	if status == http.StatusServiceUnavailable {
		return ErrDraining
	}
	return ErrOverloaded
}

// readError extracts the JSON error body (best effort) and closes it.
func readError(resp *http.Response) string {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}

// url builds a tenant endpoint with query values.
func (c *Client) url(endpoint string, vals url.Values) string {
	u := fmt.Sprintf("%s/v1/tenants/%s/%s", c.cfg.Base, url.PathEscape(c.cfg.Tenant), endpoint)
	if len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	return u
}

// Append ingests a batch of records. Explicit refusals (429 quota, 503
// draining) are retried with backoff — the server refused before
// applying, so the retry cannot double-append. Transport errors are
// NOT retried (the batch may have landed); callers needing exactly-once
// must deduplicate at a higher layer.
func (c *Client) Append(ctx context.Context, recs []Record) error {
	// Sized for the common tagless record, so the body is usually one
	// allocation; do re-sends it on every retry, so it is not pooled.
	body, err := service.EncodeBatch(make([]byte, 0, 2+128*len(recs)), recs)
	if err != nil {
		return fmt.Errorf("client: encoding batch: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, c.url("records", nil), body, false)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		io.Copy(io.Discard, resp.Body)
		return nil
	case http.StatusInsufficientStorage:
		return fmt.Errorf("client: %s: %w", readErrorKeepOpen(resp), ErrDegraded)
	default:
		return fmt.Errorf("client: append: %s (HTTP %d)", readErrorKeepOpen(resp), resp.StatusCode)
	}
}

// readErrorKeepOpen reads the error body without double-closing (the
// caller's defer owns the close).
func readErrorKeepOpen(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}

// QueryOpts tunes a one-shot query.
type QueryOpts struct {
	// Limit caps results (0 = unlimited).
	Limit int
	// Order is "frame" (default) or "id".
	Order string
	// Timeout is a server-side deadline propagated into the executor
	// (0 = request context only).
	Timeout time.Duration
}

// Query runs a one-shot query and returns every match. Safe operation:
// transport errors retry too.
func (c *Client) Query(ctx context.Context, q string, opts QueryOpts) ([]Record, error) {
	vals := url.Values{"q": {q}}
	if opts.Limit > 0 {
		vals.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Order != "" {
		vals.Set("order", opts.Order)
	}
	if opts.Timeout > 0 {
		vals.Set("timeout", opts.Timeout.String())
	}
	resp, err := c.do(ctx, http.MethodGet, c.url("query", vals), nil, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: query: %s (HTTP %d)", readErrorKeepOpen(resp), resp.StatusCode)
	}
	var out []Record
	if opts.Limit > 0 {
		out = make([]Record, 0, min(opts.Limit, 1024))
	}
	var dec service.Decoder
	sc := newLineScanner(resp.Body)
	sawEOF := false
	for sc.Scan() {
		rec, env, err := dec.Line(sc.Bytes())
		switch {
		case err != nil:
			return nil, fmt.Errorf("client: decoding stream: %w", err)
		case env == nil:
			out = append(out, rec)
		case env.Error != "":
			return out, fmt.Errorf("client: query failed mid-stream: %s", env.Error)
		case env.EOF:
			sawEOF = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading stream: %w", err)
	}
	if !sawEOF {
		return nil, errors.New("client: query stream truncated (no EOF envelope)")
	}
	return out, nil
}

// Stats fetches the tenant's status.
func (c *Client) Stats(ctx context.Context) (service.TenantStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, c.url("stats", nil), nil, true)
	if err != nil {
		return service.TenantStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.TenantStatus{}, fmt.Errorf("client: stats: %s (HTTP %d)", readErrorKeepOpen(resp), resp.StatusCode)
	}
	var st service.TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.TenantStatus{}, fmt.Errorf("client: decoding stats: %w", err)
	}
	return st, nil
}

// Health fetches the server-wide health report (all tenants).
func (c *Client) Health(ctx context.Context) (service.HealthReport, error) {
	resp, err := c.do(ctx, http.MethodGet, c.cfg.Base+"/healthz", nil, true)
	if err != nil {
		return service.HealthReport{}, err
	}
	defer resp.Body.Close()
	var rep service.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return service.HealthReport{}, fmt.Errorf("client: decoding health: %w", err)
	}
	return rep, nil
}

// FollowStream is a live subscription: history first, then matching
// appends as the server publishes them. Single-consumer; Close when
// done.
type FollowStream struct {
	resp *http.Response
	sc   *bufio.Scanner
	dec  service.Decoder
	err  error
}

// Follow opens a FOLLOW stream for q. The initial subscribe retries
// explicit refusals (429 follower cap, 503 draining); once streaming,
// a broken stream is surfaced, not resumed — callers re-Follow, which
// replays history for a consistent restart.
func (c *Client) Follow(ctx context.Context, q string) (*FollowStream, error) {
	resp, err := c.do(ctx, http.MethodGet, c.url("follow", url.Values{"q": {q}}), nil, true)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: follow: %s (HTTP %d)", readErrorKeepOpen(resp), resp.StatusCode)
	}
	return &FollowStream{resp: resp, sc: newLineScanner(resp.Body)}, nil
}

// newLineScanner scans a response's NDJSON lines. The buffer starts at
// bufio's 4 KiB — a record line is ≈ 140 bytes — and grows on demand to
// the 16 MiB ceiling a line may reach.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20)
	return sc
}

// Next returns the next record. Terminal errors: ErrLagging (server
// dropped the subscription or its spill quota ran out), ErrDraining
// (server shutdown), ErrEnded (read-only tail exhausted), io.EOF-style
// stream end without a terminal envelope is reported as an error.
func (f *FollowStream) Next() (Record, error) {
	if f.err != nil {
		return Record{}, f.err
	}
	for f.sc.Scan() {
		rec, env, err := f.dec.Line(f.sc.Bytes())
		switch {
		case err != nil:
			f.err = fmt.Errorf("client: decoding follow stream: %w", err)
			return Record{}, f.err
		case env == nil:
			return rec, nil
		case env.Error != "":
			f.err = envelopeErr(*env)
			return Record{}, f.err
		}
	}
	if err := f.sc.Err(); err != nil {
		f.err = fmt.Errorf("client: follow stream broke: %w", err)
	} else {
		f.err = errors.New("client: follow stream ended without terminal envelope")
	}
	return Record{}, f.err
}

// envelopeErr maps a terminal envelope to its sentinel.
func envelopeErr(env service.Envelope) error {
	switch env.Code {
	case service.CodeLagging:
		return fmt.Errorf("client: %s: %w", env.Error, ErrLagging)
	case service.CodeDraining:
		return fmt.Errorf("client: %s: %w", env.Error, ErrDraining)
	case service.CodeEnded:
		return fmt.Errorf("client: %s: %w", env.Error, ErrEnded)
	default:
		return fmt.Errorf("client: follow terminated: %s (%s)", env.Error, env.Code)
	}
}

// Err returns the stream's terminal error, if any.
func (f *FollowStream) Err() error { return f.err }

// Close releases the stream. Idempotent.
func (f *FollowStream) Close() error {
	if f.resp != nil {
		f.resp.Body.Close()
		f.resp = nil
	}
	return nil
}
