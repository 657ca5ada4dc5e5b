package img

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// fillRect sets every pixel of r (clipped to g) to v.
func fillRect(g *Gray, r Rect, v uint8) {
	c := r.Intersect(Rect{0, 0, g.W, g.H})
	for y := c.Y; y < c.Y+c.H; y++ {
		for x := c.X; x < c.X+c.W; x++ {
			g.Set(x, y, v)
		}
	}
}

func TestNewAndAtSet(t *testing.T) {
	g := New(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("bad dims %dx%d len=%d", g.W, g.H, len(g.Pix))
	}
	g.Set(2, 1, 200)
	if g.Pix[1*4+2] != 200 {
		t.Error("Set wrote the wrong pixel")
	}
	// Out of range writes are ignored and must not panic.
	g.Set(-1, -1, 9)
	g.Set(4, 0, 9)
	g.Set(0, 3, 9)
	for i, p := range g.Pix {
		if p != 0 && i != 1*4+2 {
			t.Errorf("OOB Set changed pixel %d", i)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,5) should panic")
		}
	}()
	New(0, 5)
}

func TestFromPix(t *testing.T) {
	if _, err := FromPix(2, 2, []uint8{1, 2, 3}); !errors.Is(err, ErrBounds) {
		t.Error("size mismatch should be ErrBounds")
	}
	g, err := FromPix(2, 2, []uint8{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.AtClamped(1, 1) != 4 {
		t.Error("FromPix layout wrong")
	}
}

func TestAtClamped(t *testing.T) {
	g := New(2, 2)
	g.Set(0, 0, 10)
	g.Set(1, 1, 20)
	if g.AtClamped(-5, -5) != 10 {
		t.Error("clamp to top-left failed")
	}
	if g.AtClamped(10, 10) != 20 {
		t.Error("clamp to bottom-right failed")
	}
}

func TestCrop(t *testing.T) {
	g := New(10, 10)
	fillRect(g, Rect{2, 3, 4, 4}, 128)
	c, err := g.CropInto(Rect{2, 3, 4, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Pix {
		if p != 128 {
			t.Fatal("crop content wrong")
		}
	}
	if _, err := g.CropInto(Rect{8, 8, 5, 5}, nil); !errors.Is(err, ErrBounds) {
		t.Error("OOB crop should fail")
	}
	if _, err := g.CropInto(Rect{0, 0, 0, 1}, nil); !errors.Is(err, ErrBounds) {
		t.Error("empty crop should fail")
	}
}

func TestCropClamped(t *testing.T) {
	g := New(4, 4)
	g.Fill(50)
	c := g.CropClamped(Rect{-2, -2, 4, 4})
	if c.W != 4 || c.H != 4 {
		t.Fatal("clamped crop size wrong")
	}
	if c.AtClamped(0, 0) != 50 {
		t.Error("clamped crop should replicate border")
	}
	if e := g.CropClamped(Rect{0, 0, 0, 0}); e.W != 1 || e.H != 1 {
		t.Error("degenerate clamped crop should give 1x1")
	}
}

func TestResizeIdentityAndScale(t *testing.T) {
	g := New(8, 8)
	fillRect(g, Rect{0, 0, 4, 8}, 200)
	same := g.Resize(8, 8)
	for i := range g.Pix {
		if same.Pix[i] != g.Pix[i] {
			t.Fatal("identity resize should copy")
		}
	}
	half := g.Resize(4, 4)
	// Left half should stay bright, right half dark.
	if half.AtClamped(0, 2) < 150 || half.AtClamped(3, 2) > 50 {
		t.Errorf("downscale lost structure: left=%d right=%d", half.AtClamped(0, 2), half.AtClamped(3, 2))
	}
	up := g.Resize(16, 16)
	if up.AtClamped(1, 8) < 150 || up.AtClamped(14, 8) > 50 {
		t.Error("upscale lost structure")
	}
}

func TestMeanVariance(t *testing.T) {
	g := New(2, 2)
	g.Pix = []uint8{0, 0, 255, 255}
	if got := g.Mean(); got != 127.5 {
		t.Errorf("mean = %v", got)
	}
	if got := g.Variance(); got != 127.5*127.5 {
		t.Errorf("variance = %v", got)
	}
	flat := New(3, 3)
	flat.Fill(42)
	if flat.Variance() != 0 {
		t.Error("flat image variance should be 0")
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	in := a.Intersect(b)
	if in != (Rect{5, 5, 5, 5}) {
		t.Errorf("intersect = %v", in)
	}
	if a.Intersect(Rect{20, 20, 5, 5}).Area() != 0 {
		t.Error("disjoint intersect should be empty")
	}
	iou := a.IoU(b)
	want := 25.0 / 175.0
	if diff := iou - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("IoU = %v, want %v", iou, want)
	}
	if a.IoU(a) != 1 {
		t.Error("self IoU should be 1")
	}
	cx, cy := a.Center()
	if cx != 5 || cy != 5 {
		t.Errorf("center = %v,%v", cx, cy)
	}
}

func TestCropRoundTripProperty(t *testing.T) {
	// Property: cropping then reading matches direct reads.
	rng := rand.New(rand.NewSource(5))
	g := New(32, 24)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	f := func(x8, y8, w8, h8 uint8) bool {
		r := Rect{int(x8 % 16), int(y8 % 12), 1 + int(w8%16), 1 + int(h8%12)}
		c, err := g.CropInto(r, nil)
		if err != nil {
			return true // OOB is allowed to fail
		}
		for y := 0; y < r.H; y++ {
			for x := 0; x < r.W; x++ {
				if c.AtClamped(x, y) != g.AtClamped(r.X+x, r.Y+y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWritePGM(t *testing.T) {
	g := randomImage(33, 17, 9)
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "P5\n33 17\n255\n" + string(g.Pix); buf.String() != want {
		t.Fatalf("WritePGM wrote %d bytes, not a binary P5 header followed by the pixels", buf.Len())
	}
}
