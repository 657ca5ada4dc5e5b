package summarize

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/layers"
)

// buildResult fabricates a multilayer result with one strong EC episode
// and an emotion swing.
func buildResult(t *testing.T) *layers.Result {
	t.Helper()
	ctx := layers.Context{
		Location: "lab", Occasion: "meeting",
		Participants: []layers.Participant{
			{ID: 0, Name: "P1", Color: "yellow"},
			{ID: 1, Name: "P2", Color: "blue"},
			{ID: 2, Name: "P3", Color: "green"},
		},
	}
	a, err := layers.NewAnalyzer(ctx, layers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := ctx.IDs()
	for i := 0; i < 300; i++ {
		m := gaze.NewMatrix(ids)
		// Strong EC episode frames 100-160 between P1 and P3; others
		// look at P1 throughout (dominance).
		m.M[1][0] = 1
		m.M[2][0] = 1
		if i >= 100 && i < 160 {
			m.M[0][2] = 1
		}
		emo := emotion.Neutral
		if i >= 150 {
			emo = emotion.Happy
		}
		in := layers.FrameInput{
			Index: i, Time: time.Duration(i) * 40 * time.Millisecond,
			LookAt: m,
			Emotions: map[int]layers.EmotionObs{
				0: {Label: emo, Confidence: 0.9},
				1: {Label: emotion.Neutral, Confidence: 0.9},
			},
		}
		if err := a.Push(in); err != nil {
			t.Fatal(err)
		}
	}
	return a.Finalize()
}

func TestSummarizeBasics(t *testing.T) {
	res := buildResult(t)
	s, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Highlights) == 0 {
		t.Fatal("no highlights")
	}
	// The best highlight must overlap the EC episode [100,160).
	h := s.Highlights[0]
	if h.End <= 95 || h.Start >= 165 {
		t.Errorf("top highlight [%d,%d) misses the EC episode", h.Start, h.End)
	}
	if len(h.Reasons) == 0 {
		t.Error("highlight should carry reasons")
	}
	// P1 receives all gaze: dominant.
	if s.Dominant != 0 {
		t.Errorf("dominant = %d, want 0", s.Dominant)
	}
	if s.DominanceShare <= 0.5 {
		t.Errorf("dominance share = %v", s.DominanceShare)
	}
	if !strings.Contains(s.Digest, "P1") {
		t.Error("digest should mention the dominant participant")
	}
}

func TestSummarizeWindowsDisjoint(t *testing.T) {
	res := buildResult(t)
	imp, why := scoreFrames(res)
	hs := pickWindows(imp, why, 5, 30, 10)
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			a, b := hs[i], hs[j]
			if a.Start < b.End+10 && b.Start < a.End+10 {
				t.Errorf("highlights %v and %v violate spacing", a, b)
			}
		}
	}
	// Ordered by score.
	for i := 1; i < len(hs); i++ {
		if hs[i].Score > hs[i-1].Score {
			t.Error("highlights not score-ordered")
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("nil result err = %v", err)
	}
	if _, err := Summarize(&layers.Result{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty result err = %v", err)
	}
}

func TestSummarizeShortEvent(t *testing.T) {
	// Window longer than the event must clamp, not panic.
	ctx := layers.Context{Participants: []layers.Participant{{ID: 0, Name: "P1"}, {ID: 1, Name: "P2"}}}
	a, _ := layers.NewAnalyzer(ctx, layers.Options{})
	ids := ctx.IDs()
	for i := 0; i < 10; i++ {
		m := gaze.NewMatrix(ids)
		m.M[0][1], m.M[1][0] = 1, 1
		if err := a.Push(layers.FrameInput{Index: i, LookAt: m,
			Emotions: map[int]layers.EmotionObs{}}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Summarize(a.Finalize()) // a 50-frame window over 10 frames
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Highlights) == 0 {
		t.Error("short event should still produce a highlight")
	}
	if s.Highlights[0].End > 10 {
		t.Errorf("highlight exceeds event length: %+v", s.Highlights[0])
	}
}
