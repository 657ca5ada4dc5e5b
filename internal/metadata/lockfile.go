package metadata

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/vfs"
)

// Directory leasing. The preferred mechanism is the platform flock
// (vfs.FS.Flock on the directory itself): exclusive for writers,
// shared for read-only opens, crash-released by the kernel. Where
// flock is unsupported (non-unix builds, or a FaultFS configured
// without it) writers fall back to O_EXCL lease files carrying the
// owner's pid (lockLease); read-only opens take no lease at all there
// (they must not create files, and an O_EXCL file cannot be shared), so
// only writer-vs-writer exclusion is enforced — see WithReadOnly's
// caveat.

// lockDir acquires the directory lease for Open, honouring the
// WithLockWait backoff: a held lease retries with exponential backoff
// (1ms doubling, capped at 50ms) until the wait budget or context
// expires. Without WithLockWait a held lease fails fast with ErrLocked.
func lockDir(fsys vfs.FS, dir string, o options) (io.Closer, error) {
	ctx := o.lockCtx
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.Now().Add(o.lockWait)
	delay := time.Millisecond
	for {
		c, err := tryLockDir(fsys, dir, o.readOnly)
		if err == nil || !errors.Is(err, ErrLocked) {
			return c, err
		}
		if o.lockWait <= 0 || !time.Now().Before(deadline) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("metadata: lock wait cancelled: %w", errors.Join(ctx.Err(), ErrLocked))
		case <-time.After(delay):
		}
		if delay *= 2; delay > 50*time.Millisecond {
			delay = 50 * time.Millisecond
		}
	}
}

// tryLockDir makes one lease attempt: flock when the filesystem
// supports it, else the lease-file fallback (writers only).
func tryLockDir(fsys vfs.FS, dir string, readOnly bool) (io.Closer, error) {
	c, err := fsys.Flock(dir, !readOnly)
	switch {
	case err == nil:
		return c, nil
	case errors.Is(err, vfs.ErrLockHeld):
		return nil, fmt.Errorf("metadata: %s: %w", dir, ErrLocked)
	case errors.Is(err, errors.ErrUnsupported):
		if readOnly {
			return nil, nil
		}
		return lockLease(fsys, dir)
	default:
		return nil, fmt.Errorf("metadata: flock %s: %w", dir, err)
	}
}

// unlockDir releases the lease. Closing a flock handle drops the
// kernel lock; closing a lease removes its own lease file.
func unlockDir(c io.Closer) error {
	if c == nil {
		return nil
	}
	return c.Close()
}

// pidAlive probes whether a pid belongs to a live process. The
// implementation is platform-gated (pidprobe_*.go): unix uses signal
// 0, elsewhere every pid-bearing lease is treated as live because no
// reliable probe exists. Stubbed by tests.
var pidAlive = pidAliveImpl

// Lease files are named by generation: LOCK.<gen>, created O_EXCL and
// carrying "pid N\n" so contenders can probe the owner's liveness. The
// owner is whoever holds the highest generation. (A bare LOCK, the
// pre-generation name, reads as generation 0.)

// leaseFile is one lease file found in the repository directory.
type leaseFile struct {
	name string
	gen  uint64
}

// leaseGen parses a lease file name.
func leaseGen(name string) (uint64, bool) {
	if name == lockName {
		return 0, true
	}
	digits, ok := strings.CutPrefix(name, lockName+".")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, err == nil && gen > 0 && digits[0] != '0'
}

// listLeases returns the directory's lease files, ascending by
// generation.
func listLeases(fsys vfs.FS, dir string) ([]leaseFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("metadata: listing lease files: %w", err)
	}
	var leases []leaseFile
	for _, e := range entries {
		if gen, ok := leaseGen(e.Name()); ok {
			leases = append(leases, leaseFile{e.Name(), gen})
		}
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].gen < leases[j].gen })
	return leases, nil
}

// lockLease takes the fallback lease. A contender reads the highest
// generation g; if its owner is live the directory is locked. If it is
// stale (owner pid dead, or the file never got its pid — a crash inside
// the create window), or there is none, the contender claims by creating
// generation g+1 O_EXCL: the claim is atomic with the observation it
// rests on — of all contenders that saw g, exactly one creates g+1 — and
// nothing another contender may have created since is renamed or
// removed. Releases delete lease files, so a generation number can come
// round again after the directory emptied; the claimant therefore
// confirms before it owns: every other lease file present must be of a
// lower generation and stale. Otherwise its observation was overtaken —
// it withdraws its own file and starts over. The stale files it read
// stay behind for removeOrphans.
func lockLease(fsys vfs.FS, dir string) (io.Closer, error) {
	for attempt := 0; attempt < 8; attempt++ {
		leases, err := listLeases(fsys, dir)
		if err != nil {
			return nil, err
		}
		var gen uint64
		if n := len(leases); n > 0 {
			if !leaseStale(fsys, filepath.Join(dir, leases[n-1].name)) {
				return nil, fmt.Errorf("metadata: %s: %w", dir, ErrLocked)
			}
			gen = leases[n-1].gen
		}
		mine := leaseFile{fmt.Sprintf("%s.%d", lockName, gen+1), gen + 1}
		path := filepath.Join(dir, mine.name)
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue // another contender claimed on the same observation
		}
		if err != nil {
			return nil, fmt.Errorf("metadata: creating lock file: %w", err)
		}
		_, werr := fmt.Fprintf(f, "pid %d\n", os.Getpid())
		if werr == nil {
			werr = f.Sync()
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fsys.Remove(path)
			return nil, fmt.Errorf("metadata: writing lock file: %w", werr)
		}
		if leases, err = listLeases(fsys, dir); err != nil {
			fsys.Remove(path)
			return nil, err
		}
		confirmed := true
		for _, l := range leases {
			if l != mine && (l.gen > mine.gen || !leaseStale(fsys, filepath.Join(dir, l.name))) {
				confirmed = false
				break
			}
		}
		if confirmed {
			return leaseCloser{fsys: fsys, path: path}, nil
		}
		fsys.Remove(path)
	}
	return nil, fmt.Errorf("metadata: lease takeover did not converge: %w", ErrLocked)
}

// leaseOwner reports the pid recorded in the highest-generation lease
// file, if there is one and it is readable.
func leaseOwner(fsys vfs.FS, dir string) (int, bool) {
	leases, err := listLeases(fsys, dir)
	if err != nil || len(leases) == 0 {
		return 0, false
	}
	return leasePid(fsys, filepath.Join(dir, leases[len(leases)-1].name))
}

// leaseStale reports whether the lease file belongs to a dead owner.
// A file without a parseable pid is re-read after a grace period: a
// live creator writes its pid within microseconds of the O_EXCL
// create, so a still-empty file means the creator died inside that
// window.
func leaseStale(fsys vfs.FS, path string) bool {
	pid, ok := leasePid(fsys, path)
	if !ok {
		time.Sleep(10 * time.Millisecond)
		if pid, ok = leasePid(fsys, path); !ok {
			return true
		}
	}
	return pid != os.Getpid() && !pidAlive(pid)
}

// leasePid reads the owner pid recorded in the lease file.
func leasePid(fsys vfs.FS, path string) (int, bool) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var pid int
	if _, err := fmt.Sscanf(string(data), "pid %d", &pid); err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// leaseCloser releases a fallback lease by deleting its own lease file —
// and only while the file still records this process's pid. If the
// generation was superseded and swept (after a liveness misjudgement)
// the file is gone, and whatever now sits at that name belongs to
// someone else: deleting it would open the door to a second writer.
type leaseCloser struct {
	fsys vfs.FS
	path string
}

func (l leaseCloser) Close() error {
	data, err := l.fsys.ReadFile(l.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // taken over and already re-released
	}
	if err != nil {
		return fmt.Errorf("metadata: releasing lock file: %w", err)
	}
	var pid int
	if _, err := fmt.Sscanf(string(data), "pid %d", &pid); err != nil || pid != os.Getpid() {
		return nil // the file belongs to a takeover winner, not us
	}
	return l.fsys.Remove(l.path)
}
