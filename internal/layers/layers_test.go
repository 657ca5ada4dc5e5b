package layers

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/emotion"
	"repro/internal/gaze"
)

func testContext() Context {
	return Context{
		Location: "meeting room",
		Occasion: "team dinner",
		Participants: []Participant{
			{ID: 0, Name: "P1", Color: "yellow"},
			{ID: 1, Name: "P2", Color: "blue"},
			{ID: 2, Name: "P3", Color: "green"},
			{ID: 3, Name: "P4", Color: "black"},
		},
	}
}

// frameWithEC builds a frame where a↔b are in mutual gaze.
func frameWithEC(idx int, ids []int, a, b int) FrameInput {
	m := gaze.NewMatrix(ids)
	ia, ib := -1, -1
	for i, id := range ids {
		if id == a {
			ia = i
		}
		if id == b {
			ib = i
		}
	}
	m.M[ia][ib] = 1
	m.M[ib][ia] = 1
	return FrameInput{
		Index: idx, Time: time.Duration(idx) * 40 * time.Millisecond,
		LookAt: m, Emotions: map[int]EmotionObs{},
	}
}

func emptyFrame(idx int, ids []int) FrameInput {
	return FrameInput{
		Index: idx, Time: time.Duration(idx) * 40 * time.Millisecond,
		LookAt: gaze.NewMatrix(ids), Emotions: map[int]EmotionObs{},
	}
}

func TestAnalyzerRequiresParticipants(t *testing.T) {
	if _, err := NewAnalyzer(Context{}, Options{}); err == nil {
		t.Error("empty context should fail")
	}
}

func TestPushOrderEnforced(t *testing.T) {
	ctx := testContext()
	a, err := NewAnalyzer(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := ctx.IDs()
	if err := a.Push(emptyFrame(5, ids)); err != nil {
		t.Fatal(err)
	}
	if err := a.Push(emptyFrame(5, ids)); err == nil {
		t.Error("duplicate frame index should fail")
	}
	if err := a.Push(emptyFrame(3, ids)); err == nil {
		t.Error("out-of-order frame should fail")
	}
	a.Finalize()
	if err := a.Push(emptyFrame(9, ids)); !errors.Is(err, ErrClosed) {
		t.Errorf("push after finalize err = %v", err)
	}
}

func TestECEventDetection(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{smoothWindow: 3, minECFrames: 10})
	// 30 frames of P1↔P3 contact, then 30 empty frames.
	for i := 0; i < 30; i++ {
		if err := a.Push(frameWithEC(i, ids, 0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 30; i < 60; i++ {
		if err := a.Push(emptyFrame(i, ids)); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Finalize()
	if len(r.Events) != 1 {
		t.Fatalf("events = %+v, want 1", r.Events)
	}
	e := r.Events[0]
	if e.A != 0 || e.B != 2 {
		t.Errorf("event pair = (%d,%d)", e.A, e.B)
	}
	// Smoothing delays onset by ≈ window/2; run must cover most of the
	// scripted 30 frames and end within the window after frame 30.
	if e.Start > 3 || e.End < 28 || e.End > 34 {
		t.Errorf("event span [%d,%d), want ≈ [0,30)", e.Start, e.End)
	}
	// An ECStart alert must exist.
	foundAlert := false
	for _, al := range r.Alerts {
		if al.Kind == AlertECStart && al.Person == 0 && al.Other == 2 {
			foundAlert = true
		}
	}
	if !foundAlert {
		t.Error("missing eye-contact alert")
	}
}

func TestSmoothingAbsorbsFlicker(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{smoothWindow: 9, minECFrames: 10})
	// P1↔P3 contact for 40 frames with every 5th frame dropped (the
	// detector flicker measured in the gaze tests).
	for i := 0; i < 40; i++ {
		if i%5 == 0 {
			if err := a.Push(emptyFrame(i, ids)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := a.Push(frameWithEC(i, ids, 0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 40; i < 60; i++ {
		if err := a.Push(emptyFrame(i, ids)); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Finalize()
	if len(r.Events) != 1 {
		t.Fatalf("flickery contact should fuse into one event, got %d: %+v",
			len(r.Events), r.Events)
	}
}

func TestShortContactSuppressed(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{smoothWindow: 1, minECFrames: 12})
	for i := 0; i < 5; i++ {
		if err := a.Push(frameWithEC(i, ids, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < 20; i++ {
		if err := a.Push(emptyFrame(i, ids)); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Finalize()
	if len(r.Events) != 0 {
		t.Errorf("5-frame glance should not be an event: %+v", r.Events)
	}
}

func TestOverallEmotionFig5(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{})
	in := emptyFrame(0, ids)
	in.Emotions = map[int]EmotionObs{
		0: {Label: emotion.Happy, Confidence: 1},
		1: {Label: emotion.Happy, Confidence: 1},
		2: {Label: emotion.Neutral, Confidence: 1},
		3: {Label: emotion.Sad, Confidence: 1},
	}
	if err := a.Push(in); err != nil {
		t.Fatal(err)
	}
	r := a.Finalize()
	oe := r.Overall[0]
	if oe.Observed != 4 {
		t.Errorf("observed = %d", oe.Observed)
	}
	if math.Abs(oe.OH-50) > 1e-9 {
		t.Errorf("OH = %v, want 50%%", oe.OH)
	}
	if math.Abs(oe.Share[emotion.Sad]-0.25) > 1e-9 {
		t.Errorf("sad share = %v", oe.Share[emotion.Sad])
	}
}

func TestOverallEmotionConfidenceWeighting(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{})
	in := emptyFrame(0, ids)
	in.Emotions = map[int]EmotionObs{
		0: {Label: emotion.Happy, Confidence: 0.9},
		1: {Label: emotion.Sad, Confidence: 0.1},
	}
	if err := a.Push(in); err != nil {
		t.Fatal(err)
	}
	r := a.Finalize()
	if got := r.Overall[0].OH; math.Abs(got-90) > 1e-9 {
		t.Errorf("weighted OH = %v, want 90", got)
	}
}

func TestEmotionChangeAlert(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{emotionHold: 3})
	push := func(idx int, l emotion.Label) {
		in := emptyFrame(idx, ids)
		in.Emotions = map[int]EmotionObs{0: {Label: l, Confidence: 1}}
		if err := a.Push(in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		push(i, emotion.Neutral)
	}
	// A 2-frame blip must NOT alert (hold is 3).
	push(10, emotion.Happy)
	push(11, emotion.Happy)
	for i := 12; i < 16; i++ {
		push(i, emotion.Neutral)
	}
	// A sustained switch must alert once.
	for i := 16; i < 26; i++ {
		push(i, emotion.Happy)
	}
	r := a.Finalize()
	changes := 0
	for _, al := range r.Alerts {
		if al.Kind == AlertEmotionChange {
			changes++
			if al.Person != 0 {
				t.Errorf("alert person = %d", al.Person)
			}
		}
	}
	if changes != 1 {
		t.Errorf("%d emotion-change alerts, want 1: %+v", changes, r.Alerts)
	}
}

func TestNegativeSpikeLatch(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{})
	push := func(idx int, neg bool) {
		in := emptyFrame(idx, ids)
		l := emotion.Happy
		if neg {
			l = emotion.Disgust
		}
		in.Emotions = map[int]EmotionObs{
			0: {Label: l, Confidence: 1},
			1: {Label: l, Confidence: 1},
			2: {Label: l, Confidence: 1},
		}
		if err := a.Push(in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		push(i, false)
	}
	for i := 5; i < 15; i++ {
		push(i, true) // sustained negative episode: ONE alert
	}
	for i := 15; i < 20; i++ {
		push(i, false)
	}
	for i := 20; i < 25; i++ {
		push(i, true) // second episode: second alert
	}
	r := a.Finalize()
	spikes := 0
	for _, al := range r.Alerts {
		if al.Kind == AlertNegativeSpike {
			spikes++
		}
	}
	if spikes != 2 {
		t.Errorf("%d negative-spike alerts, want 2", spikes)
	}
}

func TestSatisfactionScoreOrdersDinners(t *testing.T) {
	mk := func(happyFrac float64) float64 {
		ctx := testContext()
		ids := ctx.IDs()
		a, _ := NewAnalyzer(ctx, Options{})
		n := 100
		for i := 0; i < n; i++ {
			in := emptyFrame(i, ids)
			l := emotion.Disgust
			if float64(i) < happyFrac*float64(n) {
				l = emotion.Happy
			}
			in.Emotions = map[int]EmotionObs{0: {Label: l, Confidence: 1}}
			if err := a.Push(in); err != nil {
				t.Fatal(err)
			}
		}
		return a.Finalize().SatisfactionScore()
	}
	good := mk(0.9)
	bad := mk(0.1)
	if good <= bad {
		t.Errorf("satisfaction good=%v should exceed bad=%v", good, bad)
	}
	if good < 50 || bad > 50 {
		t.Errorf("scores good=%v bad=%v should straddle neutral 50", good, bad)
	}
}

func TestContextAccessors(t *testing.T) {
	ctx := testContext()
	if got := ctx.IDs(); len(got) != 4 || got[0] != 0 {
		t.Errorf("IDs = %v", got)
	}
	if p, ok := ctx.Participant(2); !ok || p.Color != "green" {
		t.Errorf("participant 2 = %+v, %v", p, ok)
	}
	if _, ok := ctx.Participant(42); ok {
		t.Error("unknown participant should miss")
	}
}

func TestFinalizeClosesOpenRuns(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{smoothWindow: 1, minECFrames: 10})
	for i := 0; i < 20; i++ {
		if err := a.Push(frameWithEC(i, ids, 1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Finalize()
	if len(r.Events) != 1 {
		t.Fatalf("open run should close at finalize: %+v", r.Events)
	}
	if r.Events[0].End < 20 {
		t.Errorf("event end = %d, want 20", r.Events[0].End)
	}
	// Idempotent finalize.
	if r2 := a.Finalize(); r2 != r {
		t.Error("second finalize should return the same result")
	}
}

func TestMeanOHEmpty(t *testing.T) {
	r := &Result{}
	if r.MeanOH() != 0 || r.SatisfactionScore() != 0 {
		t.Error("empty result scores should be 0")
	}
}

func TestInferSpeaker(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	m := gaze.NewMatrix(ids)
	// Everyone looks at P1 (ID 0): clear speaker.
	m.M[1][0], m.M[2][0], m.M[3][0] = 1, 1, 1
	if got := inferSpeaker(m); got != 0 {
		t.Errorf("speaker = %d, want 0", got)
	}
	// Split attention 1 vs 1: below the half-quorum of 3 others → none.
	m2 := gaze.NewMatrix(ids)
	m2.M[1][0] = 1
	m2.M[0][2] = 1
	if got := inferSpeaker(m2); got != -1 {
		t.Errorf("split attention speaker = %d, want -1", got)
	}
	// Exactly half the others (2 of 3) suffices.
	m3 := gaze.NewMatrix(ids)
	m3.M[1][2], m3.M[3][2] = 1, 1
	if got := inferSpeaker(m3); got != 2 {
		t.Errorf("quorum speaker = %d, want 2", got)
	}
	// Degenerate single-person matrix.
	if got := inferSpeaker(gaze.NewMatrix([]int{5})); got != -1 {
		t.Errorf("solo speaker = %d, want -1", got)
	}
}

func TestInferredSpeakersSeries(t *testing.T) {
	ctx := testContext()
	ids := ctx.IDs()
	a, _ := NewAnalyzer(ctx, Options{smoothWindow: 1})
	for i := 0; i < 10; i++ {
		m := gaze.NewMatrix(ids)
		target := 0
		if i >= 5 {
			target = 2
		}
		for _, from := range []int{0, 1, 2, 3} {
			if from != target {
				idx := from // ids are 0..3 so index == id
				m.M[idx][target] = 1
			}
		}
		if err := a.Push(FrameInput{Index: i, LookAt: m, Emotions: map[int]EmotionObs{}}); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Finalize()
	if len(r.InferredSpeakers) != 10 {
		t.Fatalf("series length %d", len(r.InferredSpeakers))
	}
	truth := []int{0, 0, 0, 0, 0, 2, 2, 2, 2, 2}
	if acc := SpeakerAccuracy(r.InferredSpeakers, truth); acc != 1 {
		t.Errorf("accuracy = %v, inferred %v", acc, r.InferredSpeakers)
	}
}

func TestSpeakerAccuracyEdges(t *testing.T) {
	if SpeakerAccuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if SpeakerAccuracy([]int{1, 2}, []int{-1, -1}) != 0 {
		t.Error("all-silence truth should be 0")
	}
	if got := SpeakerAccuracy([]int{1, 9, 2}, []int{1, -1, 3}); got != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", got)
	}
}
