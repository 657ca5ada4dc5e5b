package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
	"repro/internal/vfs"
)

// ErrDraining is the terminal error handed to every live follower and
// refused request while the server drains (SIGTERM). Clients should
// reconnect to another instance or retry after the restart.
var ErrDraining = errors.New("service: server draining")

// Config tunes a Server. The zero value of every field has a usable
// default; only Root is required.
type Config struct {
	// Root is the directory under which each tenant's repository lives
	// (Root/<tenant>). Required.
	Root string
	// FS, when non-nil, replaces the OS filesystem for every tenant
	// repository (fault injection via vfs.FaultFS). Follower spill
	// files always use the real OS temp machinery.
	FS vfs.FS
	// RepoOpts is appended to every tenant repository open.
	RepoOpts []metadata.Option

	// MaxInflight bounds concurrently admitted requests across all
	// tenants (default 256). Excess load is refused with 429 +
	// Retry-After rather than queued without bound. FOLLOW streams
	// release their admission slot once upgraded to streaming — they
	// are bounded by MaxFollowers instead.
	MaxInflight int
	// AppendRate is the per-tenant token-bucket refill rate in
	// records/second (default 50000). AppendBurst is the bucket
	// capacity (default 2×AppendRate). A batched append takes one
	// token per record.
	AppendRate  float64
	AppendBurst int
	// MaxFollowers caps open FOLLOW streams per tenant (default 64;
	// negative = unlimited).
	MaxFollowers int
	// MaxDiskBytes caps a tenant's disk footprint — repository
	// segments plus live follower spill (0 = unlimited). Breaching it,
	// or an ENOSPC append failure, degrades the tenant to read-only:
	// appends are refused with 507 while reads continue and healthz
	// reports the degradation.
	MaxDiskBytes int64
	// Backpressure selects the follower overflow policy (DropLagging
	// default).
	Backpressure Backpressure
	// FollowBuffer is the per-follower live queue capacity in records
	// (default: the repository's default).
	FollowBuffer int

	// IdleClose releases a tenant's writer lease after this much idle
	// time so out-of-band WithReadOnly tools can attach (0 = never
	// close). LockWait bounds how long a request waits to take the
	// lease back from such a tool (default 5s).
	IdleClose time.Duration
	LockWait  time.Duration

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// now is a test seam for the quota clock.
	now func() time.Time
}

// Server is the dieventd service: an http.Handler serving the ingest/
// query/follow API for every tenant under its root. Create with New,
// serve with net/http, stop with Drain.
type Server struct {
	cfg Config
	mux *http.ServeMux

	inflight chan struct{}
	scratch  sync.Pool // *appendScratch

	mu      sync.Mutex
	tenants map[string]*tenant

	draining  atomic.Bool
	drainCh   chan struct{} // closed when drain starts; followers watch it
	inFlight  sync.WaitGroup
	janitorWG sync.WaitGroup
	stop      chan struct{}
	stopOnce  sync.Once
}

// New validates cfg, applies defaults, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, errors.New("service: Config.Root is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.AppendRate <= 0 {
		cfg.AppendRate = 50000
	}
	if cfg.AppendBurst <= 0 {
		cfg.AppendBurst = int(2 * cfg.AppendRate)
	}
	if cfg.MaxFollowers == 0 {
		cfg.MaxFollowers = 64
	}
	if cfg.LockWait <= 0 {
		cfg.LockWait = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInflight),
		scratch:  sync.Pool{New: func() any { return new(appendScratch) }},
		tenants:  make(map[string]*tenant),
		drainCh:  make(chan struct{}),
		stop:     make(chan struct{}),
	}
	s.routes()
	if cfg.IdleClose > 0 {
		s.janitorWG.Add(1)
		go s.janitor()
	}
	return s, nil
}

// tenant returns (creating on first sight) the named tenant's state.
func (s *Server) tenant(name string) (*tenant, error) {
	if !tenantNameRe.MatchString(name) {
		return nil, fmt.Errorf("%w: %q", errBadTenant, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{
			name:   name,
			dir:    filepath.Join(s.cfg.Root, name),
			bucket: newTokenBucket(s.cfg.AppendRate, s.cfg.AppendBurst),
			last:   s.cfg.now(),
		}
		s.tenants[name] = t
	}
	return t, nil
}

// tenantList snapshots the registry in name order.
func (s *Server) tenantList() []*tenant {
	s.mu.Lock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	return list
}

// admit claims an admission slot. ok=false means the server is at
// MaxInflight and the caller should answer 429.
func (s *Server) admit() bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

// unadmit returns an admission slot.
func (s *Server) unadmit() { <-s.inflight }

// janitor periodically releases idle tenants' writer leases.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	period := s.cfg.IdleClose / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			now := s.cfg.now()
			for _, t := range s.tenantList() {
				t.closeIfIdle(now, s.cfg.IdleClose)
			}
		}
	}
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs the graceful-shutdown sequence (DESIGN.md §11):
//
//  1. stop admitting — readyz flips to 503, every new request is
//     refused with 503 + Retry-After;
//  2. terminate live followers with ErrDraining (each stream delivers
//     what it already queued, then a terminal "draining" envelope);
//  3. wait for in-flight requests to finish, bounded by ctx;
//  4. flush and close every tenant repository, sealing active segments
//     and releasing writer leases — after which an offline Fsck of
//     every tenant directory is clean.
//
// Idempotent; concurrent calls share the same sequence. Returns the
// first tenant-close error and ctx.Err() if in-flight requests
// outlived the deadline (repositories are still closed in that case —
// a deadline overrun degrades to a hard close, not a leak).
func (s *Server) Drain(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		close(s.stop)
	})

	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("service: drain deadline: %w", ctx.Err())
	}

	for _, t := range s.tenantList() {
		if cerr := t.shutdown(); cerr != nil && err == nil {
			err = fmt.Errorf("service: closing tenant %s: %w", t.name, cerr)
		}
	}
	s.janitorWG.Wait()
	return err
}

// noteAppendError inspects an append failure and applies the ENOSPC
// degradation contract: the tenant flips to service-level read-only
// (appends 507, reads keep working, healthz reports it) instead of
// wedging behind a disk that will keep refusing writes.
func (s *Server) noteAppendError(t *tenant, err error) {
	if isNoSpace(err) {
		t.degrade("append failed with ENOSPC")
		s.cfg.Logf("tenant %s: degraded to read-only: %v", t.name, err)
	}
}

// overQuota applies the disk-quota half of the degradation contract
// after a successful append: segments plus live spill beyond
// MaxDiskBytes flips the tenant read-only for subsequent appends.
func (s *Server) overQuota(t *tenant, repo *metadata.Repository) {
	if s.cfg.MaxDiskBytes <= 0 {
		return
	}
	st, err := repo.Stats()
	if err != nil {
		return
	}
	t.mu.Lock()
	total := st.DiskBytes + t.spill
	t.mu.Unlock()
	if total > s.cfg.MaxDiskBytes {
		t.degrade(fmt.Sprintf("disk quota exceeded (%d > %d bytes)", total, s.cfg.MaxDiskBytes))
		s.cfg.Logf("tenant %s: degraded to read-only: %d bytes > quota %d", t.name, total, s.cfg.MaxDiskBytes)
	}
}
