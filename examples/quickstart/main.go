// Quickstart: simulate the paper's four-person prototype meeting, run
// the full DiEvent pipeline, and print the analysis digest plus one
// semantic metadata query — the minimal end-to-end tour of the public
// API.
package main

import (
	"fmt"
	"log"

	"repro/dievent"
)

func main() {
	// 1. Configure the pipeline over the paper's §III prototype: four
	//    participants, four corner cameras, 610 frames at 25 fps.
	//    The pipeline is a fixed list of stages — add the optional
	//    analyzers with Config.Stages (e.g. dievent.StageAttention)
	//    and keep a run manifest for incremental re-runs with
	//    Config.Incremental (see the sociology and smartrestaurant
	//    examples).
	pipe, err := dievent.New(dievent.Config{
		Scenario: dievent.PrototypeScenario(),
		Mode:     dievent.GeometricVision,
		Gaze:     dievent.GazeOptions{Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run acquisition → feature extraction → multilayer analysis →
	//    metadata storage → summarisation.
	res, err := pipe.Run()
	if err != nil {
		log.Fatal(err)
	}
	defer res.Repo.Close()

	// 3. The digest: look-at summary (paper Fig. 9), dominance, overall
	//    happiness, eye-contact events.
	fmt.Println(res.Summary.Digest)

	// 4. The metadata repository answers semantic queries (paper §II-E):
	//    when was the dominant participant in eye contact?
	recs, err := res.Repo.Query("label = 'eye-contact' AND person = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eye-contact events involving P1:\n")
	for _, r := range recs {
		fmt.Printf("  %v\n", r)
	}
}
