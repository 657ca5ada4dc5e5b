// Command dievent-train trains the LBP+NN emotion classifier on the
// synthetic expressive-face corpus and reports the held-out confusion
// matrix. With -o it also writes the trained model in the format
// emotion.LoadClassifier reads; no command loads that file (pipeline
// runs train their own classifier at startup), so it serves library
// callers and offline inspection.
//
// Usage:
//
//	dievent-train [-per-label N] [-epochs N] [-hidden N] [-o model.dinn]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/emotion"
)

func main() {
	var (
		perLabel = flag.Int("per-label", 60, "training faces per emotion")
		epochs   = flag.Int("epochs", 60, "training epochs")
		hidden   = flag.Int("hidden", 48, "hidden layer width")
		out      = flag.String("o", "", "write the trained model to this file")
		seed     = flag.Int64("seed", 1, "dataset/init seed")
	)
	flag.Parse()

	ds := emotion.GenerateDataset(*perLabel, uint64(*seed))
	train, test := ds.Split(0.25)
	fmt.Printf("dataset: %d train / %d test faces across %d emotions\n",
		len(train.Faces), len(test.Faces), emotion.NumLabels)

	clf, err := emotion.NewClassifier(*hidden, *seed)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	hist, err := clf.Train(train, emotion.TrainOptions{
		Epochs: *epochs, Seed: *seed, LearningRate: 0.01,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained in %v; loss %.4f → %.4f\n",
		time.Since(start).Round(time.Millisecond), hist[0], hist[len(hist)-1])

	m, err := clf.Evaluate(test)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("held-out accuracy: %.3f\n\n%s", m.Accuracy(), m)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := clf.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("model written to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dievent-train:", err)
	os.Exit(1)
}
