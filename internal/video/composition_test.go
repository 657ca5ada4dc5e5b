package video

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/img"
)

func TestComposeCutsAndBoundaries(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	s0, _ := NewSourceRange(NewRenderer(sim, rig.Cameras[0], RenderOptions{}), 0, 60)
	s1, _ := NewSourceRange(NewRenderer(sim, rig.Cameras[2], RenderOptions{}), 0, 60)
	comp, err := Compose([]Source{s0, s1}, []Shot{
		{Source: 0, Len: 30},
		{Source: 1, Len: 25, TransitionIn: Cut},
		{Source: 0, Len: 30, TransitionIn: Dissolve},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(comp.frames); got != 85 {
		t.Fatalf("composed %d frames, want 85", got)
	}
	b := comp.TrueBoundaries()
	if len(b) != 2 || b[0] != 30 || b[1] != 55 {
		t.Fatalf("boundaries = %v, want [30 55]", b)
	}
	// Dissolve frames actually blend: the first dissolve frame should
	// differ from both the pure previous tail and the pure new shot.
	fr := comp.frames
	if img.MeanAbsDiff(fr[55].Pixels, fr[54].Pixels) == 0 {
		t.Error("dissolve should change pixels gradually")
	}
}

func TestComposeValidation(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	mk := func() Source {
		s, _ := NewSourceRange(NewRenderer(sim, rig.Cameras[0], RenderOptions{}), 0, 20)
		return s
	}
	if _, err := Compose(nil, []Shot{{Source: 0, Len: 5}}); !errors.Is(err, ErrBadComposition) {
		t.Error("empty sources should fail")
	}
	if _, err := Compose([]Source{mk()}, nil); !errors.Is(err, ErrBadComposition) {
		t.Error("empty shots should fail")
	}
	if _, err := Compose([]Source{mk()}, []Shot{{Source: 5, Len: 5}}); !errors.Is(err, ErrBadComposition) {
		t.Error("bad source index should fail")
	}
	if _, err := Compose([]Source{mk()}, []Shot{{Source: 0, Len: 0}}); !errors.Is(err, ErrBadComposition) {
		t.Error("zero-length shot should fail")
	}
	if _, err := Compose([]Source{mk()}, []Shot{{Source: 0, Len: 999}}); !errors.Is(err, ErrBadComposition) {
		t.Error("overlong shot should fail")
	}
}

func TestSliceSource(t *testing.T) {
	f := Frame{Index: 0, Pixels: img.New(4, 4)}
	s := (&Composition{frames: []Frame{f, f, f}}).Source()
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
	got, err := Collect(s)
	if err != nil || len(got) != 3 {
		t.Errorf("collect = %d frames, err %v", len(got), err)
	}
	if _, err := s.Next(); !errors.Is(err, ErrEnd) {
		t.Error("exhausted source should return ErrEnd")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	sim := protoSim(t)
	rig := protoRig(t)
	src, _ := NewSourceRange(NewRenderer(sim, rig.Cameras[1], RenderOptions{NoiseSigma: 1}), 0, 10)
	frames, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 25, frames); err != nil {
		t.Fatal(err)
	}
	got, fps, err := ReadContainer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fps != 25 {
		t.Errorf("fps = %v", fps)
	}
	if len(got) != len(frames) {
		t.Fatalf("read %d frames, want %d", len(got), len(frames))
	}
	for i := range got {
		if got[i].Camera != frames[i].Camera {
			t.Errorf("frame %d camera %q != %q", i, got[i].Camera, frames[i].Camera)
		}
		if got[i].Time != frames[i].Time {
			t.Errorf("frame %d time mismatch", i)
		}
		for j := range got[i].Pixels.Pix {
			if got[i].Pixels.Pix[j] != frames[i].Pixels.Pix[j] {
				t.Fatalf("frame %d pixel %d mismatch", i, j)
			}
		}
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	g := img.New(8, 8)
	g.Fill(100)
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 25, []Frame{{Camera: "C1", Pixels: g}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a pixel byte near the end (before the CRC).
	raw[len(raw)-10] ^= 0xFF
	_, _, err := ReadContainer(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("corrupted payload error = %v, want ErrCorruptFrame", err)
	}
}

func TestContainerRejectsBadMagic(t *testing.T) {
	_, _, err := ReadContainer(bytes.NewReader([]byte("NOPE-not-a-container")))
	if !errors.Is(err, ErrBadContainer) {
		t.Errorf("bad magic error = %v", err)
	}
}

func TestContainerRejectsEmptyAndMixedSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 25, nil); !errors.Is(err, ErrBadContainer) {
		t.Error("empty write should fail")
	}
	a := img.New(8, 8)
	b := img.New(4, 4)
	err := WriteContainer(&buf, 25, []Frame{{Pixels: a}, {Pixels: b}})
	if !errors.Is(err, ErrBadContainer) {
		t.Error("mixed sizes should fail")
	}
}

func TestContainerTruncatedStream(t *testing.T) {
	g := img.New(8, 8)
	var buf bytes.Buffer
	if err := WriteContainer(&buf, 25, []Frame{{Camera: "C1", Pixels: g}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-20] // chop the tail
	if _, _, err := ReadContainer(bytes.NewReader(raw)); err == nil {
		t.Error("truncated container should fail")
	}
}
