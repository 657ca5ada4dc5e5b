package service_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/dievent/client"
	"repro/internal/metadata"
)

// TestDieventdEndToEnd is the server smoke gate check.sh runs: build
// the real dieventd binary, start it on a scratch root, run concurrent
// ingest+query+FOLLOW against it, SIGTERM mid-traffic, and assert the
// drain completes within its deadline, the process exits 0, the
// follower received the drain envelope, and a post-mortem offline Fsck
// of every tenant is clean.
func TestDieventdEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "dieventd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/dieventd")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dieventd: %v\n%s", err, out)
	}

	root := filepath.Join(scratch, "root")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-root", root,
		"-backpressure", "spill",
		"-drain-timeout", "30s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its bound address once listening.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "dieventd listening on "); ok {
			base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never announced its address: %v", sc.Err())
	}
	go func() { // drain remaining stdout so the child never blocks on the pipe
		for sc.Scan() {
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	newClient := func(tenant string) *client.Client {
		c, err := client.New(client.Config{Base: base, Tenant: tenant, MaxRetries: 4, Backoff: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Concurrent traffic: two ingest tenants, a query loop, a follower.
	const perTenant = 5000
	var wg, ingest sync.WaitGroup
	errCh := make(chan error, 8)
	for _, tenant := range []string{"rig-a", "rig-b"} {
		ingest.Add(1)
		go func(tenant string) {
			defer ingest.Done()
			c := newClient(tenant)
			for lo := 0; lo < perTenant; lo += 250 {
				if err := c.Append(ctx, batch(lo, lo+250, "e2e")); err != nil {
					errCh <- fmt.Errorf("ingest %s: %w", tenant, err)
					return
				}
			}
		}(tenant)
	}
	queryStop := make(chan struct{})
	var termSent atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient("rig-a")
		for {
			select {
			case <-queryStop:
				return
			default:
			}
			if _, err := c.Query(ctx, "label = 'e2e'", client.QueryOpts{Limit: 20, Timeout: 10 * time.Second}); err != nil {
				// Once SIGTERM is out, a query may meet the drained
				// process's closed socket (connection refused, reset):
				// a legitimate post-drain outcome, not a failure.
				if !termSent.Load() {
					errCh <- fmt.Errorf("query: %w", err)
				}
				return
			}
		}
	}()

	followRecords := make(chan int, 1)
	followTerm := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient("rig-a")
		fs, err := c.Follow(ctx, "label = 'e2e'")
		if err != nil {
			errCh <- fmt.Errorf("follow subscribe: %w", err)
			followTerm <- err
			return
		}
		defer fs.Close()
		n := 0
		for {
			if _, err := fs.Next(); err != nil {
				followRecords <- n
				followTerm <- err
				return
			}
			n++
		}
	}()

	// Wait for both ingesters to return, so there is real data and no
	// POST can land on the drained process's closed socket; keep the
	// query and follow streams live, then SIGTERM mid-traffic.
	ingestDone := make(chan struct{})
	go func() {
		ingest.Wait()
		close(ingestDone)
	}()
	select {
	case <-ingestDone:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(90 * time.Second):
		t.Fatal("ingest never completed")
	}
	for _, tenant := range []string{"rig-a", "rig-b"} {
		if st, err := newClient(tenant).Stats(ctx); err != nil || st.Records != perTenant {
			t.Fatalf("%s after ingest: %d records, err %v; want %d", tenant, st.Records, err, perTenant)
		}
	}

	termSent.Store(true)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	close(queryStop)

	// Drain must finish well inside its 30s deadline; give the whole
	// process 45s including exec overhead.
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("dieventd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("dieventd did not drain+exit within deadline")
	}

	// The follower was terminated with the drain sentinel (or the
	// socket closed under it mid-drain, which still ends the stream).
	select {
	case err := <-followTerm:
		if !errors.Is(err, client.ErrDraining) {
			t.Logf("follower terminal error: %v (want ErrDraining; tolerated if the stream broke at socket close)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never terminated")
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		// Refusals during the drain window are the documented behaviour.
		if errors.Is(err, client.ErrDraining) || errors.Is(err, context.Canceled) {
			continue
		}
		t.Error(err)
	}

	// Post-mortem: leases released, stores sealed, zero damage.
	for _, tenant := range []string{"rig-a", "rig-b"} {
		rep, err := metadata.Fsck(filepath.Join(root, tenant))
		if err != nil {
			t.Fatalf("fsck %s: %v", tenant, err)
		}
		if !rep.Clean() {
			t.Errorf("fsck %s not clean after drain:\n%+v", tenant, rep)
		}
	}
}
