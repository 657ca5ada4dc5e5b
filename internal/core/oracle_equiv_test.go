package core

// Equivalence suite (DESIGN.md §7): the stage-graph pipeline must
// produce byte-identical metadata records (context, raw, derived),
// layers and summaries to the retained monolithic oracle
// (oracle_test.go) for both vision modes, at every worker count.
// check.sh runs this under the race detector with Workers > 1.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gaze"
	"repro/internal/metadata"
	"repro/internal/scene"
)

// captureOracle runs the frozen monolith and captures everything the
// equivalence tests compare.
func captureOracle(t *testing.T, cfg Config) runResult {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.runOracle()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	var recs []metadata.Record
	res.Repo.Scan(func(r metadata.Record) bool {
		recs = append(recs, r)
		return true
	})
	return runResult{layers: res.Layers, summary: res.Summary, records: recs}
}

func assertRunsEqual(t *testing.T, want, got runResult, label string) {
	t.Helper()
	if len(want.records) == 0 {
		t.Fatalf("%s: oracle produced no records", label)
	}
	if !reflect.DeepEqual(want.records, got.records) {
		t.Errorf("%s: metadata records differ from oracle (%d vs %d records)",
			label, len(want.records), len(got.records))
	}
	if !reflect.DeepEqual(want.layers, got.layers) {
		t.Errorf("%s: layers differ from oracle", label)
	}
	if !reflect.DeepEqual(want.summary, got.summary) {
		t.Errorf("%s: summary differs from oracle", label)
	}
}

// TestStageGraphMatchesOracleGeometric is the refactor's core
// guarantee on the geometric path: the registry-driven stage graph is
// byte-identical to the frozen monolith, sequentially and on the
// worker pool.
func TestStageGraphMatchesOracleGeometric(t *testing.T) {
	cfgs := map[string]Config{
		"prototype": {
			Scenario: scene.PrototypeScenario(),
			Mode:     GeometricVision,
			Gaze:     gaze.EstimatorOptions{Seed: 11},
		},
		"noisy-truncated": {
			Scenario:     scene.PrototypeScenario(),
			Mode:         GeometricVision,
			Gaze:         gaze.EstimatorOptions{Seed: 5, GazeNoiseDeg: 6},
			EmotionNoise: 0.2,
			MaxFrames:    200,
		},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			oracle := captureOracle(t, cfg)
			for _, workers := range []int{1, 4} {
				wcfg := cfg
				wcfg.Workers = workers
				assertRunsEqual(t, oracle, captureRun(t, wcfg), name)
			}
		})
	}
}

// TestStageGraphMatchesOraclePixel proves the pixel stage set — the
// render → detect → track → classify chain plus cross-camera fusion —
// byte-identical to the monolith, including under the worker pool with
// two camera lanes, with every frame on the detector's cadence (1) and
// with the tracker coasting between detections (3, the default, and 4).
func TestStageGraphMatchesOraclePixel(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	for _, every := range []int{1, 3, 4} {
		cfg := Config{
			Scenario:     scene.PrototypeScenario(),
			Mode:         PixelVision,
			Gaze:         gaze.EstimatorOptions{Seed: 4},
			Classifier:   engineTestClassifier(t),
			MaxFrames:    24,
			DetectEvery:  every,
			PixelCameras: 2,
		}
		oracle := captureOracle(t, cfg)
		for _, workers := range []int{1, 4} {
			wcfg := cfg
			wcfg.Workers = workers
			assertRunsEqual(t, oracle, captureRun(t, wcfg), fmt.Sprintf("pixel every=%d", every))
		}
	}
}

// TestDefaultCadenceYieldsObservations pins the pixel path's yield at
// the default detector cadence: frames between detections must coast
// the tracker, not count misses, or no track is ever confirmed and the
// run stores almost no emotion observations (10 of 240 person-frames
// before the coast step; 120 with it, the same as at DetectEvery 1).
func TestDefaultCadenceYieldsObservations(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel vision is expensive")
	}
	const frames = 60
	p, err := New(Config{
		Scenario:     scene.PrototypeScenario(),
		Mode:         PixelVision,
		Gaze:         gaze.EstimatorOptions{Seed: 4},
		Classifier:   engineTestClassifier(t),
		MaxFrames:    frames,
		PixelCameras: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Close()
	var obs int
	res.Repo.Scan(func(r metadata.Record) bool {
		if r.Kind == metadata.KindObservation {
			obs++
		}
		return true
	})
	personFrames := frames * len(res.Context.Participants)
	if obs*10 < personFrames*4 {
		t.Errorf("default cadence stored %d observations over %d person-frames, want ≥ 40%%", obs, personFrames)
	}
}
