package scene

import (
	"testing"

	"repro/internal/emotion"
)

// scriptOracle is the fold NewSimulator's per-segment states replace:
// every segment starting at or before frame i, applied in order from
// frame 0, with per-person entries persisting until overridden.
func scriptOracle(sc Scenario, i int) (map[int]GazeTarget, map[int]emotion.Label, int, Phase) {
	gaze := make(map[int]GazeTarget, len(sc.Persons))
	emo := make(map[int]emotion.Label, len(sc.Persons))
	for _, p := range sc.Persons {
		gaze[p.ID] = AtTable()
		emo[p.ID] = emotion.Neutral
	}
	speaker, phase := -1, Phase(0)
	for _, seg := range sc.Segments {
		if seg.Start > i {
			break
		}
		for id, g := range seg.Gaze {
			gaze[id] = g
		}
		for id, e := range seg.Emotions {
			emo[id] = e
		}
		speaker, phase = seg.Speaker, seg.Phase
	}
	return gaze, emo, speaker, phase
}

// TestScriptAtMatchesFold checks every frame's scripted gaze target,
// emotion, speaker and phase against the per-frame fold, frame indexes
// outside the scenario (which FrameState clamps) included, on the
// prototype, an 8-person dinner, and a script whose later segment names
// a person the scenario does not have.
func TestScriptAtMatchesFold(t *testing.T) {
	dinner, err := DinnerScenario(DinnerOptions{Persons: 8, Frames: 3000, Seed: 5, Enjoyment: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	stray := validScenario()
	stray.NumFrames = 100
	stray.Segments = append(stray.Segments, Segment{
		Start:    40,
		Gaze:     map[int]GazeTarget{1: Away()},
		Emotions: map[int]emotion.Label{0: emotion.Happy, 9: emotion.Sad},
		Speaker:  1, Phase: PhaseEating,
	})
	for _, sc := range []Scenario{PrototypeScenario(), dinner, stray} {
		if len(sc.Segments) < 2 {
			t.Fatalf("%s: %d segments, want several", sc.Name, len(sc.Segments))
		}
		s, err := NewSimulator(sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := -3; i < sc.NumFrames+3; i++ {
			fs := s.FrameState(i)
			gaze, emo, speaker, phase := scriptOracle(sc, min(max(i, 0), sc.NumFrames-1))
			if fs.Phase != phase {
				t.Fatalf("%s frame %d: phase %v, want %v", sc.Name, i, fs.Phase, phase)
			}
			for _, p := range fs.Persons {
				if p.Target != gaze[p.ID] || p.Emotion != emo[p.ID] || p.Speaking != (speaker == p.ID) {
					t.Fatalf("%s frame %d person %d: (%v, %v, speaking %v), want (%v, %v, speaker %d)",
						sc.Name, i, p.ID, p.Target, p.Emotion, p.Speaking, gaze[p.ID], emo[p.ID], speaker)
				}
			}
		}
	}
}
