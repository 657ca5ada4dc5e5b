package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sync"
	"syscall"
	"time"

	"repro/internal/metadata"
)

// tokenBucket is a classic token-bucket rate limiter: capacity `burst`
// tokens refilled at `rate` tokens/second. take never blocks — on
// refusal it reports how long the caller should wait, which the HTTP
// layer forwards as Retry-After.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take attempts to remove n tokens. On refusal it returns the duration
// after which n tokens will have accumulated (never zero).
func (b *tokenBucket) take(n float64, now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt.Seconds()*b.rate)
		b.last = now
	}
	if n <= b.tokens {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	wait := time.Duration(need / b.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return false, wait
}

// tenantNameRe is the allowed tenant-name shape: it doubles as path
// sanitisation (no separators, no dots, no traversal) because the name
// becomes a directory under the service root.
var tenantNameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// errBadTenant rejects names that could escape the service root.
var errBadTenant = errors.New("service: invalid tenant name")

// tenant is the server-side state of one isolated repository. The repo
// handle comes and goes (idle tenants close it to release the writer
// lease for out-of-band WithReadOnly tools) while the quota and
// degradation state persist for the server's lifetime.
type tenant struct {
	name string
	dir  string

	mu   sync.Mutex
	repo *metadata.Repository // nil when idle-closed
	refs int                  // in-flight requests holding the repo open
	last time.Time            // end of the most recent request

	bucket    *tokenBucket
	followers int // open FOLLOW streams

	// degraded flips the tenant to service-level read-only: appends are
	// refused with 507 while queries and follows continue. Set on disk
	// quota breach or an ENOSPC append failure; reset by Reopen-style
	// administrative action only (conservative: space reappearing is
	// not observable without retrying the write).
	degraded bool
	// degradedWhy records the trigger for healthz.
	degradedWhy string
}

// lockWait bounds how long a request waits for an out-of-band reader to
// release a tenant's lease.
const lockWait = 5 * time.Second

// acquire opens (or re-opens) the tenant's repository and pins it for
// the duration of a request. Callers must release. The open waits on
// the directory lease so a transient out-of-band reader (WithReadOnly
// holds a shared lease) delays rather than fails the request.
func (t *tenant) acquire(ctx context.Context, s *Server) (*metadata.Repository, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.repo == nil {
		opts := append([]metadata.Option{}, s.cfg.RepoOpts...)
		if s.cfg.FS != nil {
			opts = append(opts, metadata.WithFS(s.cfg.FS))
		}
		opts = append(opts, metadata.WithLockWait(ctx, lockWait))
		repo, err := metadata.Open(t.dir, opts...)
		if err != nil {
			return nil, fmt.Errorf("service: opening tenant %s: %w", t.name, err)
		}
		t.repo = repo
	}
	t.refs++
	return t.repo, nil
}

// release unpins the repository and stamps the idle clock.
func (t *tenant) release(now time.Time) {
	t.mu.Lock()
	t.refs--
	t.last = now
	t.mu.Unlock()
}

// closeIfIdle closes the repository when unreferenced and idle longer
// than maxIdle, releasing the writer lease so out-of-band tools can
// take a read-only lease. Reports whether the repo is now closed.
func (t *tenant) closeIfIdle(now time.Time, maxIdle time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.repo == nil {
		return true
	}
	if t.refs > 0 || now.Sub(t.last) < maxIdle {
		return false
	}
	t.repo.Close()
	t.repo = nil
	return true
}

// shutdown closes the repository unconditionally (drain path). Safe to
// call with requests already drained.
func (t *tenant) shutdown() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.repo == nil {
		return nil
	}
	err := t.repo.Close()
	t.repo = nil
	return err
}

// degrade flips the tenant read-only with a reason (first one wins).
func (t *tenant) degrade(why string) {
	t.mu.Lock()
	if !t.degraded {
		t.degraded = true
		t.degradedWhy = why
	}
	t.mu.Unlock()
}

// isDegraded reports the service-level read-only state.
func (t *tenant) isDegraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degraded
}

// reserveFollower claims a follower slot against the per-tenant cap.
func (t *tenant) reserveFollower(max int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if max > 0 && t.followers >= max {
		return false
	}
	t.followers++
	return true
}

// releaseFollower returns a follower slot.
func (t *tenant) releaseFollower() {
	t.mu.Lock()
	t.followers--
	t.mu.Unlock()
}

// status snapshots the tenant for healthz/stats. Repository statistics
// are read only when the repo is open — status never forces an open.
func (t *tenant) status() TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStatus{
		Tenant:           t.name,
		Open:             t.repo != nil,
		ReadOnlyDegraded: t.degraded,
		Followers:        t.followers,
	}
	if t.repo != nil {
		if rs, err := t.repo.Stats(); err == nil {
			st.Records = rs.Records
			st.DiskBytes = rs.DiskBytes
		}
		if h, err := t.repo.Health(); err == nil {
			st.Health = &h
		}
	}
	return st
}

// isNoSpace reports an ENOSPC-chained error (a full disk, or a
// FaultFS injecting syscall.ENOSPC).
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}
