package video

import (
	"errors"
	"math"
	"testing"

	"repro/internal/camera"
	"repro/internal/img"
	"repro/internal/scene"
)

func protoSim(t testing.TB) *scene.Simulator {
	t.Helper()
	s, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func protoRig(t testing.TB) *camera.Rig {
	t.Helper()
	r, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// renderDrifting renders frame i through a sensor whose global
// lighting drifts by up to amp levels over a 500-frame period, then
// adds the renderer's σ-level noise: the frame a drifting camera
// records.
func renderDrifting(r *Renderer, i int, amp, sigma float64) *img.Gray {
	g := r.Render(i).Pixels
	delta := int(amp * math.Sin(2*math.Pi*float64(i)/500))
	for j, p := range g.Pix {
		g.Pix[j] = uint8(min(max(int(p)+delta, 0), 255))
	}
	g.AddNoise(sigma, newNoiseRand(i, r.cam.Name).NormFloat64)
	return g
}

func TestRenderDeterministic(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	r := NewRenderer(sim, rig.Cameras[0], RenderOptions{})
	a := renderDrifting(r, 100, 5, 2)
	b := renderDrifting(r, 100, 5, 2)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same frame rendered differently")
		}
	}
}

func TestRenderHasFacesAtProjectedPositions(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	cam := rig.Cameras[0]
	r := NewRenderer(sim, cam, RenderOptions{}) // no noise
	f := r.Render(250)
	fs := sim.FrameState(250)
	found := 0
	for _, p := range fs.Persons {
		px, err := cam.Project(p.Head.Position)
		if err != nil || !cam.InFrame(px) {
			continue
		}
		// The face tone should appear at (or near) the projected head.
		got := f.Pixels.AtClamped(int(px.X), int(px.Y))
		if got >= p.FaceTone-40 && got <= p.FaceTone+40 {
			found++
		}
	}
	if found < 3 {
		t.Errorf("only %d faces found at projected positions", found)
	}
}

func TestRenderBackgroundAndTable(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	r := NewRenderer(sim, rig.Cameras[0], RenderOptions{})
	f := r.Render(0)
	// Top corner: wall background.
	if got := f.Pixels.AtClamped(2, 2); got != 45 {
		t.Errorf("background = %d, want 45", got)
	}
	// Frame must contain some table-tone pixels.
	hist := f.Pixels.Hist()
	if hist[95] == 0 {
		t.Error("no table pixels rendered")
	}
}

func TestRenderNoiseChangesPixelsAcrossFrames(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	r := NewRenderer(sim, rig.Cameras[0], RenderOptions{NoiseSigma: 3})
	a := r.Render(0).Pixels
	b := r.Render(1).Pixels
	if img.MeanAbsDiff(a, b) == 0 {
		t.Error("consecutive noisy frames should differ")
	}
}

func TestSourceStreamsAll(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	src, err := NewSourceRange(NewRenderer(sim, rig.Cameras[0], RenderOptions{}), 0, sim.NumFrames())
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 610 {
		t.Fatalf("len = %d, want 610", src.Len())
	}
	n := 0
	for {
		f, err := src.Next()
		if errors.Is(err, ErrEnd) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Index != n {
			t.Fatalf("frame %d at position %d", f.Index, n)
		}
		n++
		if n > 610 {
			t.Fatal("source overran")
		}
	}
	if n != 610 {
		t.Errorf("streamed %d frames", n)
	}
}

func TestSourceRange(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	r := NewRenderer(sim, rig.Cameras[0], RenderOptions{})
	src, err := NewSourceRange(r, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 50 {
		t.Errorf("collected %d frames, want 50", len(fs))
	}
	if _, err := NewSourceRange(r, 500, 100); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := NewSourceRange(r, 0, 10000); err == nil {
		t.Error("overlong range should fail")
	}
}
