// Online streaming extraction & live subscriptions (DESIGN.md §10): the
// pipeline runs as an unbounded stream — the scripted dinner cycles past
// its end with continuing frame indexes — while windowed stages decode
// dining phases, roll attention spans and publish live summaries
// mid-stream. Followers subscribe to the very repository the run is
// still writing: Follow yields matching history first, then new appends
// as they happen, exactly once and in order. The whole ingest is
// bounded-memory — per-frame artifacts live in a ring sized to the
// widest stage window, and derived state drains at emit cadences — so
// the same program could run forever.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"repro/dievent"
)

// errStreamDone ends the followers once the stream has finished: Kill
// hands it to each cursor, which first delivers every match appended
// before it.
var errStreamDone = errors.New("stream done")

func main() {
	sc, err := dievent.DinnerScenario(dievent.DinnerOptions{
		Persons: 4, Frames: 1200, Seed: 7, Enjoyment: 0.55,
	})
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := dievent.New(dievent.Config{
		Scenario: sc,
		Mode:     dievent.GeometricVision,
		Gaze:     dievent.GazeOptions{Seed: 7},
		// The online stages: sliding-window HMM phase decoding, the
		// rolling happiness/dominance digest, attention spans.
		Stages: []string{
			dievent.StageDiningPhase,
			dievent.StageLiveSummary,
			dievent.StageAttention,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The stream ingests into a caller-owned repository so followers can
	// Tail it concurrently, in-process.
	repo := dievent.NewMemRepository()
	defer repo.Close()

	ctx := context.Background()
	done := make(chan struct{})
	var res *dievent.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = pipe.RunStream(dievent.StreamOptions{
			Ctx:    ctx,
			Frames: 4800, Cycle: true, // 4× the script: an unbounded-style stream
			Live: true, Bounded: true, // emit mid-stream, hold memory flat
			FlushEvery: 32, // bound the append→follower latency
			Repo:       repo,
		})
	}()

	// Two independent followers over the same live repository. The
	// FOLLOW suffix is the dieventql surface for the same subscription.
	var wg sync.WaitGroup
	var curs []*dievent.TailCursor
	followers := []struct{ name, query string }{
		{"phases", "label = 'live-phase' FOLLOW"},
		{"alerts", "label = 'alert-negative-spike' OR label = 'alert-emotion-change' FOLLOW"},
	}
	for _, f := range followers {
		// A follower reads the repository at its own pace: it never
		// blocks the ingest, and however far behind it falls it still
		// sees every match.
		cur, err := dievent.Follow(repo, f.query, dievent.TailOpts{})
		if err != nil {
			log.Fatal(err)
		}
		curs = append(curs, cur)
		wg.Add(1)
		go func(name string, cur *dievent.TailCursor) {
			defer wg.Done()
			defer cur.Close()
			n := 0
			for {
				rec, err := cur.Next(ctx)
				if errors.Is(err, errStreamDone) {
					fmt.Printf("[%s] stream done after %d rows\n", name, n)
					return
				}
				if err != nil {
					log.Fatalf("[%s] after %d rows: %v", name, n, err)
				}
				n++
				if n <= 5 || n%25 == 0 {
					fmt.Printf("[%s] %v\n", name, rec)
				}
			}
		}(f.name, cur)
	}

	// Let the stream run to completion, then end each follower right
	// after the last record the stream appended.
	<-done
	if runErr != nil {
		log.Fatal(runErr)
	}
	for _, cur := range curs {
		cur.Kill(errStreamDone)
	}
	wg.Wait()

	fmt.Printf("\nstreamed %d frames into %d records, memory bounded\n",
		res.FramesAnalyzed, repo.Len())
	for _, sp := range res.Phases {
		fmt.Printf("  phase %-10s frames [%d, %d)\n", sp.Phase, sp.Start, sp.End)
	}
	fmt.Printf("satisfaction score: %.1f (aggregates exact despite trimmed series)\n",
		res.Layers.SatisfactionScore())
}
