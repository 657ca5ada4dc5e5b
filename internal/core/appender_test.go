package core

// Raw-record appender suite (DESIGN.md §2): a full batch appends on its
// own goroutine while the next frames run, a FlushEvery cadence flush
// is synchronous, and an append error ends the run with no later batch
// sent and no goroutine left behind. check.sh runs it under the race
// detector.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gaze"
	"repro/internal/metadata"
	"repro/internal/scene"
	"repro/internal/vfs"
)

var errDiskWrite = errors.New("injected segment write failure")

// appenderPipeline is the prototype in geometric mode: about four raw
// records a frame, so a 256-record batch fills every 64 frames or so.
func appenderPipeline(t *testing.T, workers int) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 5},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func scanAll(repo *metadata.Repository) []metadata.Record {
	var recs []metadata.Record
	repo.Scan(func(r metadata.Record) bool {
		recs = append(recs, r)
		return true
	})
	return recs
}

// faultStream streams the prototype into a repository on fsys and
// returns the repository, the goroutine count just before the stream
// started, and the stream's error.
func faultStream(t *testing.T, fsys *vfs.FaultFS, workers, every int, monitor func(int)) (*metadata.Repository, int, error) {
	t.Helper()
	repo, err := metadata.Open("repo", metadata.WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	p := appenderPipeline(t, workers)
	before := runtime.NumGoroutine()
	_, err = p.RunStream(StreamOptions{Repo: repo, FlushEvery: every, Monitor: monitor})
	return repo, before, err
}

// TestAppendFailureEndsStream fails one segment write in the middle of
// the stream — on a size-triggered batch (which appends on the appender
// goroutine), on a FlushEvery cadence flush, and on a size-triggered
// batch that the next cadence flush must find failed — at 1 and 2
// workers.
// RunStream must return the wrapped flush error, touch the file system
// no more after the failed write (so no later batch was sent and
// nothing was finalized), leave a prefix of the clean run's records,
// and leave no goroutine running.
func TestAppendFailureEndsStream(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int
	}{{"size-triggered", 0}, {"cadence", 10}, {"size-triggered before a cadence", 100}} {
		for _, workers := range []int{1, 2} {
			// The clean run names the first segment write after frame
			// 300; the same operation number fails in the faulty run.
			ref := vfs.NewFaultFS()
			var half atomic.Bool
			var writes []int
			ref.Inject = func(n int, op vfs.Op, _ string) error {
				if op == vfs.OpWrite && half.Load() {
					writes = append(writes, n)
				}
				return nil
			}
			refRepo, _, err := faultStream(t, ref, workers, tc.every, func(i int) {
				if i == 300 {
					half.Store(true)
				}
			})
			if err != nil {
				t.Fatalf("%s workers=%d: clean run: %v", tc.name, workers, err)
			}
			want := scanAll(refRepo)
			refRepo.Close()
			if len(writes) == 0 {
				t.Fatalf("%s workers=%d: no segment write after frame 300", tc.name, workers)
			}
			failAt := writes[0]

			fsys := vfs.NewFaultFS()
			fsys.FailOp(failAt, errDiskWrite)
			repo, before, err := faultStream(t, fsys, workers, tc.every, nil)
			if !errors.Is(err, errDiskWrite) || !strings.Contains(err.Error(), "flushing observations") {
				t.Fatalf("%s workers=%d: RunStream error %v, want the wrapped flush failure", tc.name, workers, err)
			}
			if ops := fsys.Ops(); ops != failAt {
				t.Errorf("%s workers=%d: %d file-system operations after the failed write %d",
					tc.name, workers, ops-failAt, failAt)
			}
			got := scanAll(repo)
			if len(got) >= len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
				t.Errorf("%s workers=%d: repository holds %d records, want a strict prefix of the clean run's %d",
					tc.name, workers, len(got), len(want))
			}
			repo.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s workers=%d: %d goroutines outlive RunStream (had %d)",
						tc.name, workers, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestCadenceMonitorSeesFlushedFrames streams with a 100-frame cadence,
// so several full batches go to the appender between two cadence
// flushes, and requires Monitor on every cadence frame i to read a
// repo.Len() that covers the context records and every observation of
// frames ≤ i.
func TestCadenceMonitorSeesFlushedFrames(t *testing.T) {
	const every = 100
	for _, workers := range []int{1, 2} {
		repo := metadata.NewMem()
		lens := map[int]int{}
		_, err := appenderPipeline(t, workers).RunStream(StreamOptions{
			Repo: repo, FlushEvery: every,
			Monitor: func(i int) {
				if (i+1)%every == 0 {
					lens[i] = repo.Len()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs := scanAll(repo)
		repo.Close()
		covered := func(i int) int {
			n := 0
			for _, r := range recs {
				if r.Kind == metadata.KindContext || (r.Kind == metadata.KindObservation && r.Frame <= i) {
					n++
				}
			}
			return n
		}
		if first := covered(every-1) - covered(-1); first <= metadataBatch {
			t.Fatalf("workers=%d: %d records before the first cadence flush fill no batch", workers, first)
		}
		if len(lens) != 6 {
			t.Fatalf("workers=%d: Monitor fired on %d cadence frames, want 6", workers, len(lens))
		}
		for i, n := range lens {
			if want := covered(i); n != want {
				t.Errorf("workers=%d: Monitor(%d) saw repo.Len() = %d, want %d", workers, i, n, want)
			}
		}
	}
}

// TestStageFailureWaitsForInflightAppend fails a frame stage while a
// batch is still appending (each segment write is slowed down), at 1
// and 2 workers: RunStream must return the stage error only after that
// append has finished, so nothing reaches the repository afterwards.
func TestStageFailureWaitsForInflightAppend(t *testing.T) {
	boom := errors.New("stage exploded")
	for _, workers := range []int{1, 2} {
		failing := map[string]stageFactory{"fail-in-flight": func(*stageBuild) (*Stage, error) {
			return &Stage{
				Name: "fail-in-flight", Version: 1, Phase: PhaseFrame,
				RunFrame: func(env *runEnv, _ *FrameArtifacts) error {
					if env.inflight {
						return boom
					}
					return nil
				},
			}, nil
		}}
		p, err := New(Config{
			Scenario:   scene.PrototypeScenario(),
			Mode:       GeometricVision,
			Gaze:       gaze.EstimatorOptions{Seed: 5},
			Workers:    workers,
			Stages:     []string{"fail-in-flight"},
			testStages: failing,
		})
		if err != nil {
			t.Fatal(err)
		}
		fsys := vfs.NewFaultFS()
		repo, err := metadata.Open("repo", metadata.WithFS(fsys))
		if err != nil {
			t.Fatal(err)
		}
		fsys.Inject = func(_ int, op vfs.Op, _ string) error {
			if op == vfs.OpWrite {
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		}
		before := runtime.NumGoroutine()
		if _, err := p.RunStream(StreamOptions{Repo: repo}); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the stage error", workers, err)
		}
		ops, n := fsys.Ops(), repo.Len()
		time.Sleep(100 * time.Millisecond)
		if fsys.Ops() != ops || repo.Len() != n {
			t.Errorf("workers=%d: the repository changed after RunStream returned (%d → %d ops, %d → %d records)",
				workers, ops, fsys.Ops(), n, repo.Len())
		}
		if n <= metadataBatch {
			t.Errorf("workers=%d: %d records at the failure, want a full batch appended", workers, n)
		}
		repo.Close()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines outlive RunStream (had %d)", workers, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
