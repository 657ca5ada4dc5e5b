package layers

import (
	"fmt"
	"testing"

	"repro/internal/camera"
	"repro/internal/gaze"
	"repro/internal/scene"
)

// BenchmarkAblationSmoothingWindow measures the multilayer analyzer at
// different temporal smoothing windows — the design knob that absorbs
// per-frame gaze flicker (DESIGN.md design choices).
func BenchmarkAblationSmoothingWindow(b *testing.B) {
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		b.Fatal(err)
	}
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		b.Fatal(err)
	}
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 1})
	det := gaze.NewDetector()
	ctx := Context{Occasion: sim.Scenario().Name}
	for _, ps := range sim.Persons() {
		ctx.Participants = append(ctx.Participants, Participant{ID: ps.ID, Name: ps.Name, Color: ps.Color})
	}
	// Pre-compute 200 frames of matrices.
	var mats []gaze.Matrix
	for f := 0; f < 200; f++ {
		m, err := det.LookAt(est.Observe(sim.FrameState(f), rig), rig, ctx.IDs())
		if err != nil {
			b.Fatal(err)
		}
		mats = append(mats, m)
	}
	for _, window := range []int{3, 9, 25} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				an, err := NewAnalyzer(ctx, Options{smoothWindow: window})
				if err != nil {
					b.Fatal(err)
				}
				for f, m := range mats {
					in := FrameInput{Index: f, LookAt: m, Emotions: map[int]EmotionObs{}}
					if err := an.Push(in); err != nil {
						b.Fatal(err)
					}
				}
				an.Finalize()
			}
		})
	}
}
