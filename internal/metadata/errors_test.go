package metadata

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestSentinelChains pins the error-wrapping audit: every public
// failure path must keep its sentinel reachable through errors.Is, so
// callers can branch on ErrCorrupt/ErrLocked/ErrClosed/... without
// string matching, no matter how many %w layers the path added.
func TestSentinelChains(t *testing.T) {
	closedRepo := func(t *testing.T) *Repository {
		r, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name string
		want error
		err  func(t *testing.T) error
	}{
		{"open/manifest-garbage", ErrCorrupt, func(t *testing.T) error {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not a manifest\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir)
			return err
		}},
		{"open/manifest-bad-crc", ErrCorrupt, func(t *testing.T) error {
			dir := t.TempDir()
			body := manifestHeader + "\nseg 000001.seg active 0 0\n"
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body+"crc32 00000000\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir)
			return err
		}},
		{"open/corrupt-sealed-segment", ErrCorrupt, func(t *testing.T) error {
			fsys := vfs.NewFaultFS()
			_, sealed := buildSealedRepo(t, fsys, "repo", 90)
			corruptByte(t, fsys, filepath.Join("repo", sealed[0].name))
			_, err := Open("repo", WithFS(fsys))
			return err
		}},
		{"open/manifest-lost-with-segments", ErrCorrupt, func(t *testing.T) error {
			fsys := vfs.NewFaultFS()
			buildSealedRepo(t, fsys, "repo", 90)
			if err := fsys.Remove(filepath.Join("repo", manifestName)); err != nil {
				t.Fatal(err)
			}
			_, err := Open("repo", WithFS(fsys))
			return err
		}},
		{"open/flock-held", ErrLocked, func(t *testing.T) error {
			dir := t.TempDir()
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			_, err = Open(dir)
			return err
		}},
		{"open/lease-held", ErrLocked, func(t *testing.T) error {
			fsys := noFlockFS()
			dir := t.TempDir()
			r, err := Open(dir, WithFS(fsys))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			_, err = Open(dir, WithFS(fsys))
			return err
		}},
		{"closed/append", ErrClosed, func(t *testing.T) error {
			_, err := closedRepo(t).Append(obs(1, 0, "x", 1))
			return err
		}},
		{"closed/append-batch", ErrClosed, func(t *testing.T) error {
			return closedRepo(t).AppendBatch([]Record{obs(1, 0, "x", 1)})
		}},
		{"closed/sync", ErrClosed, func(t *testing.T) error {
			return closedRepo(t).Sync()
		}},
		{"closed/flush", ErrClosed, func(t *testing.T) error {
			return closedRepo(t).Flush()
		}},
		{"closed/stats", ErrClosed, func(t *testing.T) error {
			_, err := closedRepo(t).Stats()
			return err
		}},
		{"closed/health", ErrClosed, func(t *testing.T) error {
			_, err := closedRepo(t).Health()
			return err
		}},
		{"closed/query", ErrClosed, func(t *testing.T) error {
			_, err := closedRepo(t).Query("frame = 1")
			return err
		}},
		{"closed/scan", ErrClosed, func(t *testing.T) error {
			return closedRepo(t).Scan(func(Record) bool { return true })
		}},
		{"closed/compact", ErrClosed, func(t *testing.T) error {
			return closedRepo(t).Compact()
		}},
		{"read-only/append", ErrReadOnly, func(t *testing.T) error {
			dir := t.TempDir()
			w, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir, WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			_, err = r.Append(obs(1, 0, "x", 1))
			return err
		}},
		{"quarantine/compact", ErrQuarantined, func(t *testing.T) error {
			fsys := vfs.NewFaultFS()
			_, sealed := buildSealedRepo(t, fsys, "repo", 90)
			corruptByte(t, fsys, filepath.Join("repo", sealed[1].name))
			r, err := Open("repo", WithFS(fsys), WithQuarantine())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r.Compact()
		}},
		{"append/bad-record", ErrBadRecord, func(t *testing.T) error {
			_, err := NewMem().Append(Record{})
			return err
		}},
		{"query/bad-syntax", ErrBadQuery, func(t *testing.T) error {
			_, err := NewMem().Query("((")
			return err
		}},
		{"append/enospc-passthrough", syscall.ENOSPC, func(t *testing.T) error {
			fsys := vfs.NewFaultFS()
			r, err := Open("repo", WithFS(fsys), WithSyncPolicy(SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			fsys.Inject = func(n int, op vfs.Op, path string) error {
				if op == vfs.OpWrite && strings.HasSuffix(path, segSuffix) {
					return syscall.ENOSPC
				}
				return nil
			}
			t.Cleanup(func() { fsys.Inject = nil })
			_, err = r.Append(obs(1, 0, "x", 1))
			return err
		}},
		{"segment/torn-record", ErrCorrupt, func(t *testing.T) error {
			// readRecord's corruption errors chain ErrCorrupt even from
			// the raw codec layer.
			_, err := readRecord(&countingReader{r: strings.NewReader("\xff\xff\xff\xff garbage")})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err(t)
			if err == nil {
				t.Fatalf("want error chaining %v, got nil", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, does not chain %v", err, tc.want)
			}
		})
	}
}

// TestSentinelChainLockWait pins the two-sentinel chain on a cancelled
// lock wait: callers can distinguish "gave up because locked" from
// "gave up because cancelled" — both are present.
func TestSentinelChainLockWait(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Open(dir, WithLockWait(nil, 10*time.Millisecond)); !errors.Is(err, ErrLocked) {
		t.Fatalf("nil-ctx lock wait err = %v, want ErrLocked", err)
	}
}
