// Command dievent runs the full DiEvent pipeline on a named scenario and
// prints the multilayer analysis digest: the look-at summary, dominance,
// overall-emotion statistics, eye-contact events and alerts.
//
// Usage:
//
//	dievent [flags]
//
//	-scenario prototype|dinner   event to analyse (default prototype)
//	-persons N                   dinner party size (default 4)
//	-frames N                    dinner length in frames (default 1500)
//	-enjoyment F                 dinner enjoyment bias in [0,1] (default 0.7)
//	-mode geometric|pixel        vision path (default geometric)
//	-max N                       analyse only the first N frames
//	-repo DIR                    persist the metadata repository to DIR
//	-segbytes N                  repository segment roll threshold in bytes
//	-seed N                      estimator noise seed
//	-stream N                    run as an online stream of N frames (cycling
//	                             the scenario past its end) instead of a batch
//	-follow QUERY                with -stream: subscribe to the live record
//	                             feed and print matches while ingesting
//
// Streaming mode (DESIGN.md §10) runs the pipeline as an online process
// with the live stages enabled (dining-phase, live-summary,
// attention-span): windowed operators emit live- records mid-stream,
// and -follow tails them from the very repository the run is still
// writing — e.g.
//
//	dievent -stream 5000 -follow "label = 'live-phase' FOLLOW"
//
// Ctrl-C winds the stream down at the next frame boundary and the
// partial result is finalized and printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/dievent"
)

func main() {
	var (
		scenario  = flag.String("scenario", "prototype", "prototype or dinner")
		persons   = flag.Int("persons", 4, "dinner party size")
		frames    = flag.Int("frames", 1500, "dinner length in frames")
		enjoyment = flag.Float64("enjoyment", 0.7, "dinner enjoyment in [0,1]")
		mode      = flag.String("mode", "geometric", "geometric or pixel")
		maxFrames = flag.Int("max", 0, "truncate the event to N frames (0 = all)")
		repoDir   = flag.String("repo", "", "persist metadata repository to this directory")
		segBytes  = flag.Int64("segbytes", 0, "repository segment roll threshold in bytes (0 = default)")
		seed      = flag.Int64("seed", 1, "noise seed")
		stream    = flag.Int("stream", 0, "run as an online stream of N frames (0 = batch run)")
		follow    = flag.String("follow", "", "with -stream: tail this query live while ingesting")
	)
	flag.Parse()

	cfg := dievent.Config{
		MaxFrames: *maxFrames,
		RepoDir:   *repoDir,
		Gaze:      dievent.GazeOptions{Seed: *seed},
	}
	if *segBytes > 0 {
		cfg.RepoOptions = append(cfg.RepoOptions, dievent.WithSegmentSize(*segBytes))
	}
	switch *scenario {
	case "prototype":
		cfg.Scenario = dievent.PrototypeScenario()
	case "dinner":
		sc, err := dievent.DinnerScenario(dievent.DinnerOptions{
			Persons: *persons, Frames: *frames, Seed: *seed, Enjoyment: *enjoyment,
		})
		if err != nil {
			fatal(err)
		}
		cfg.Scenario = sc
	default:
		fatal(fmt.Errorf("unknown scenario %q", *scenario))
	}
	switch *mode {
	case "geometric":
		cfg.Mode = dievent.GeometricVision
	case "pixel":
		cfg.Mode = dievent.PixelVision
		if cfg.MaxFrames == 0 {
			cfg.MaxFrames = 100 // pixel vision is priced per frame
			fmt.Fprintln(os.Stderr, "note: pixel mode capped at 100 frames; raise with -max")
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	if *follow != "" && *stream == 0 {
		fatal(fmt.Errorf("-follow needs -stream (a batch run has no live feed)"))
	}
	if *stream > 0 {
		runStreaming(cfg, *stream, *follow, *mode)
		return
	}

	pipe, err := dievent.New(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := pipe.Run()
	if err != nil {
		fatal(err)
	}
	defer res.Repo.Close()

	fmt.Println(res.Summary.Digest)
	fmt.Printf("alerts:\n")
	for _, a := range res.Layers.Alerts {
		fmt.Printf("  [%7v] %-16s %s\n", a.Time.Round(40*time.Millisecond), a.Kind, a.Detail)
	}
	fmt.Printf("\npipeline: %d frames in %v (%s vision)\n",
		res.FramesAnalyzed, time.Since(start).Round(time.Millisecond), *mode)
	for _, st := range res.Timings {
		fmt.Printf("  %-20s %v\n", st.Name, st.Duration.Round(time.Microsecond))
	}
	if *repoDir != "" {
		fmt.Printf("metadata repository: %d records in %s\n", res.Repo.Len(), *repoDir)
	}
}

// errStreamDone ends the -follow cursor once the stream has appended its
// last record.
var errStreamDone = errors.New("stream done")

// runStreaming drives the online mode: the pipeline ingests frames
// (cycling the scenario when frames exceeds it) into a repository the
// main goroutine can Tail concurrently. The live stages are enabled so
// the stream emits live-phase / live-summary / attention-span records;
// past the scenario's end the run is bounded so memory stays flat no
// matter how long the stream.
func runStreaming(cfg dievent.Config, frames int, follow, mode string) {
	cfg.Stages = append(cfg.Stages,
		dievent.StageAttention, dievent.StageDiningPhase, dievent.StageLiveSummary)
	// The stream owns its repository handle so a follower can share it;
	// -repo persists it, otherwise it lives in memory.
	var repo *dievent.Repository
	var err error
	if cfg.RepoDir != "" {
		repo, err = dievent.OpenRepository(cfg.RepoDir, cfg.RepoOptions...)
		if err != nil {
			fatal(err)
		}
		cfg.RepoDir = ""
	} else {
		repo = dievent.NewMemRepository()
	}
	defer repo.Close()

	pipe, err := dievent.New(cfg)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	unbounded := frames > cfg.Scenario.NumFrames
	start := time.Now()
	var res *dievent.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = pipe.RunStream(dievent.StreamOptions{
			Ctx: ctx, Frames: frames, Cycle: unbounded,
			Live: true, Bounded: unbounded, FlushEvery: 32, Repo: repo,
		})
	}()

	if follow != "" {
		cur, err := dievent.Follow(repo, follow, dievent.TailOpts{})
		if err != nil {
			fatal(err)
		}
		// Once the ingest finishes (or Ctrl-C stops it), end the
		// follower right after the last record it appended.
		go func() {
			<-done
			cur.Kill(errStreamDone)
		}()
		n := 0
		for {
			rec, err := cur.Next(context.Background())
			if errors.Is(err, errStreamDone) {
				break
			}
			if err != nil {
				fatal(fmt.Errorf("follow after %d rows: %w", n, err))
			}
			fmt.Println(rec)
			n++
		}
		cur.Close()
		fmt.Printf("follow: %d rows\n", n)
	}

	<-done
	if runErr != nil {
		fatal(runErr)
	}
	if res.Interrupted {
		fmt.Printf("stream interrupted — finalized partial result\n")
	}
	fmt.Printf("stream: %d frames in %v (%s vision, %d records)\n",
		res.FramesAnalyzed, time.Since(start).Round(time.Millisecond), mode, repo.Len())
	if len(res.Phases) > 0 {
		fmt.Println("decoded dining phases:")
		for _, sp := range res.Phases {
			fmt.Printf("  %-10s frames [%d, %d)\n", sp.Phase, sp.Start, sp.End)
		}
	}
	fmt.Println(res.Summary.Digest)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dievent:", err)
	os.Exit(1)
}
