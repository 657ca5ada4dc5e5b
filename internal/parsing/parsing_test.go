package parsing

import (
	"errors"
	"math"
	"testing"

	"repro/internal/camera"
	"repro/internal/img"
	"repro/internal/scene"
	"repro/internal/video"
)

var compCache = map[float64]*video.Composition{}

// relit hands every frame of a source to light before it is read: the
// lighting of a different sensor or location.
type relit struct {
	video.Source
	light func(f video.Frame)
}

func (s relit) Next() (video.Frame, error) {
	f, err := s.Source.Next()
	if err == nil {
		s.light(f)
	}
	return f, err
}

// drifting lights a noiseless render as a sensor whose global lighting
// drifts by up to amp levels over a 500-frame period, then adds the
// renderer's σ-level sensor noise, seeded per (frame, camera) as the
// renderer seeds it.
func drifting(amp, sigma float64) func(video.Frame) {
	return func(f video.Frame) {
		delta := int(amp * math.Sin(2*math.Pi*float64(f.Index)/500))
		for i, p := range f.Pixels.Pix {
			f.Pixels.Pix[i] = uint8(min(max(int(p)+delta, 0), 255))
		}
		h := uint64(14695981039346656037)
		for _, b := range []byte(f.Camera) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		state := h ^ uint64(f.Index)*0x9E3779B97F4A7C15
		f.Pixels.AddNoise(sigma, func() float64 {
			var s float64
			for i := 0; i < 12; i++ {
				state += 0x9E3779B97F4A7C15
				z := state
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				s += float64((z^(z>>31))>>11) / (1 << 53)
			}
			return s - 6
		})
	}
}

// repainted lights a noiseless render with the wall (gray 45) and the
// table (gray 95) painted in other tones: the same diners in another
// room.
func repainted(wall, table uint8) func(video.Frame) {
	return func(f video.Frame) {
		for i, p := range f.Pixels.Pix {
			switch p {
			case 45:
				f.Pixels.Pix[i] = wall
			case 95:
				f.Pixels.Pix[i] = table
			}
		}
	}
}

// buildComposition renders a multi-shot edit from two very different
// camera angles with known boundaries. Compositions are cached per noise
// level — rendering 640×480 frames dominates test time otherwise.
func buildComposition(t testing.TB, noise float64) *video.Composition {
	t.Helper()
	if c, ok := compCache[noise]; ok {
		return c
	}
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := video.RenderOptions{NoiseSigma: noise}
	mk := func(cam int, from, to int) video.Source {
		s, err := video.NewSourceRange(video.NewRenderer(sim, rig.Cameras[cam], opt), from, to)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	comp, err := video.Compose(
		[]video.Source{mk(0, 0, 200), mk(2, 0, 200), mk(1, 0, 120)},
		[]video.Shot{
			{Source: 0, Len: 60},
			{Source: 1, Len: 50, TransitionIn: video.Cut},
			{Source: 2, Len: 45, TransitionIn: video.Cut},
			{Source: 0, Len: 60, TransitionIn: video.Dissolve},
		})
	if err != nil {
		t.Fatal(err)
	}
	compCache[noise] = comp
	return comp
}

func TestDetectHardCuts(t *testing.T) {
	comp := buildComposition(t, 1.5)
	p, err := Analyze(comp.Source())
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(p.Boundaries, comp.TrueBoundaries(), 6)
	if m.Recall < 0.99 {
		t.Errorf("recall = %v (metrics %+v, detected %v, truth %v)",
			m.Recall, m, p.Boundaries, comp.TrueBoundaries())
	}
	if m.Precision < 0.7 {
		t.Errorf("precision = %v (detected %v)", m.Precision, p.Boundaries)
	}
}

func TestShotsPartitionStream(t *testing.T) {
	comp := buildComposition(t, 1)
	p, err := Analyze(comp.Source())
	if err != nil {
		t.Fatal(err)
	}
	if p.Shots[0].Start != 0 {
		t.Error("first shot must start at 0")
	}
	if p.Shots[len(p.Shots)-1].End != p.NumFrames {
		t.Error("last shot must end at stream end")
	}
	for i := 1; i < len(p.Shots); i++ {
		if p.Shots[i].Start != p.Shots[i-1].End {
			t.Errorf("gap between shot %d and %d", i-1, i)
		}
	}
	for _, s := range p.Shots {
		if s.KeyFrame < s.Start || s.KeyFrame >= s.End {
			t.Errorf("keyframe %d outside shot [%d,%d)", s.KeyFrame, s.Start, s.End)
		}
	}
}

func TestScenesCoverShots(t *testing.T) {
	comp := buildComposition(t, 1)
	p, err := Analyze(comp.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scenes) == 0 {
		t.Fatal("no scenes")
	}
	seen := make(map[int]bool)
	for _, sc := range p.Scenes {
		for _, si := range sc.Shots {
			if seen[si] {
				t.Errorf("shot %d in two scenes", si)
			}
			seen[si] = true
		}
	}
	if len(seen) != len(p.Shots) {
		t.Errorf("scenes cover %d shots of %d", len(seen), len(p.Shots))
	}
	// Shots from the same camera returning later should be able to fold
	// into a similar scene — at minimum, scene count ≤ shot count.
	if len(p.Scenes) > len(p.Shots) {
		t.Error("more scenes than shots")
	}
}

func TestStaticVideoHasOneShot(t *testing.T) {
	// An uncut noisy stream must produce exactly one shot: no false
	// positives from sensor noise alone.
	sim, _ := scene.NewSimulator(scene.PrototypeScenario())
	rig, _ := camera.PrototypeRig(6, 5)
	src, _ := video.NewSourceRange(video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{}), 0, 180)
	p, err := Analyze(relit{src, drifting(4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shots) != 1 {
		t.Errorf("static stream produced %d shots: %v", len(p.Shots), p.Boundaries)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	_, err := AnalyzeFrames(nil)
	if !errors.Is(err, ErrEmptyStream) {
		t.Errorf("err = %v", err)
	}
}

func TestSingleFrame(t *testing.T) {
	f := video.Frame{Pixels: img.New(16, 16)}
	p, err := AnalyzeFrames([]video.Frame{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shots) != 1 || p.Shots[0].KeyFrame != 0 {
		t.Errorf("single-frame parse = %+v", p)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	det := []Boundary{{Frame: 10}, {Frame: 52}, {Frame: 200}}
	truth := []int{10, 50, 120}
	m := Evaluate(det, truth, 3)
	if m.TruePositives != 2 || m.FalsePositives != 1 || m.FalseNegatives != 1 {
		t.Errorf("metrics = %+v", m)
	}
	wantP, wantR := 2.0/3, 2.0/3
	if m.Precision != wantP || m.Recall != wantR {
		t.Errorf("P=%v R=%v", m.Precision, m.Recall)
	}
	// Perfect detection.
	perfect := Evaluate([]Boundary{{Frame: 5}}, []int{5}, 0)
	if perfect.F1 != 1 {
		t.Errorf("perfect F1 = %v", perfect.F1)
	}
	// Empty cases must not divide by zero.
	empty := Evaluate(nil, nil, 3)
	if empty.F1 != 0 || empty.Precision != 0 {
		t.Errorf("empty metrics = %+v", empty)
	}
}

func TestGradualDetection(t *testing.T) {
	comp := buildComposition(t, 1)
	p, err := Analyze(comp.Source())
	if err != nil {
		t.Fatal(err)
	}
	// The dissolve boundary (last truth) must be detected by either
	// detector within the dissolve span.
	truthDissolve := comp.TrueBoundaries()[2]
	found := false
	for _, b := range p.Boundaries {
		if b.Frame >= truthDissolve-3 && b.Frame <= truthDissolve+video.DissolveLen+3 {
			found = true
		}
	}
	if !found {
		t.Errorf("dissolve at %d not detected: %v", truthDissolve, p.Boundaries)
	}
}

func TestMinShotLenRespected(t *testing.T) {
	comp := buildComposition(t, 1)
	p, err := Analyze(comp.Source())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.Boundaries); i++ {
		if p.Boundaries[i].Frame-p.Boundaries[i-1].Frame < 8 {
			t.Errorf("boundaries %d and %d closer than minShotLen",
				p.Boundaries[i-1].Frame, p.Boundaries[i].Frame)
		}
	}
}

// TestSceneSegmentationSplitsDistinctSettings verifies that shots from
// visually distinct settings (different lighting/background) land in
// different scenes, while return-shots to the same setting can rejoin.
func TestSceneSegmentationSplitsDistinctSettings(t *testing.T) {
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Source A: normal room. Source B: much brighter "second location".
	mk := func(light func(video.Frame), to int) video.Source {
		s, err := video.NewSourceRange(video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{}), 0, to)
		if err != nil {
			t.Fatal(err)
		}
		return relit{s, light}
	}
	dark := repainted(40, 90)
	bright := repainted(190, 230)
	comp, err := video.Compose(
		[]video.Source{mk(dark, 120), mk(bright, 60)},
		[]video.Shot{
			{Source: 0, Len: 50},
			{Source: 1, Len: 50, TransitionIn: video.Cut},
			{Source: 0, Len: 50, TransitionIn: video.Cut},
		})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(comp.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shots) != 3 {
		t.Fatalf("detected %d shots, want 3 (%v)", len(p.Shots), p.Boundaries)
	}
	if len(p.Scenes) < 2 {
		t.Errorf("distinct settings should split scenes, got %d", len(p.Scenes))
	}
	// The bright shot must sit alone in its scene.
	for _, sc := range p.Scenes {
		for _, si := range sc.Shots {
			if si == 1 && len(sc.Shots) != 1 {
				t.Errorf("bright shot shares a scene: %v", sc.Shots)
			}
		}
	}
}
