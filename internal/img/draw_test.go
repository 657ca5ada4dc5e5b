package img

import (
	"math"
	"math/rand"
	"testing"
)

func TestFillCircle(t *testing.T) {
	g := New(21, 21)
	g.FillCircle(10.5, 10.5, 5, 255)
	if g.AtClamped(10, 10) != 255 {
		t.Error("centre should be filled")
	}
	if g.AtClamped(0, 0) != 0 {
		t.Error("corner should stay black")
	}
	// Radius respected: point just outside stays black.
	if g.AtClamped(10, 17) != 0 {
		t.Error("outside radius should be black")
	}
	g.FillCircle(5, 5, 0, 9) // no-op, must not panic
}

func TestFillEllipseRotation(t *testing.T) {
	g := New(40, 40)
	// Wide flat ellipse along x.
	g.FillEllipse(20, 20, 15, 3, 0, 255)
	if g.AtClamped(33, 20) != 255 || g.AtClamped(20, 30) != 0 {
		t.Error("unrotated ellipse extent wrong")
	}
	h := New(40, 40)
	// Same ellipse rotated 90°: extents swap.
	h.FillEllipse(20, 20, 15, 3, math.Pi/2, 255)
	if h.AtClamped(20, 33) != 255 || h.AtClamped(30, 20) != 0 {
		t.Error("rotated ellipse extent wrong")
	}
}

func TestDrawLine(t *testing.T) {
	g := New(10, 10)
	g.DrawLine(0, 0, 9, 9, 255)
	for i := 0; i < 10; i++ {
		if g.AtClamped(i, i) != 255 {
			t.Fatalf("diagonal pixel (%d,%d) not set", i, i)
		}
	}
	h := New(10, 10)
	h.DrawLine(9, 5, 0, 5, 128) // right-to-left horizontal
	for i := 0; i < 10; i++ {
		if h.AtClamped(i, 5) != 128 {
			t.Fatal("horizontal line incomplete")
		}
	}
	// Line exiting the image must not panic.
	g.DrawLine(-5, -5, 20, 3, 1)
}

func TestAddNoiseDeterministic(t *testing.T) {
	mk := func() *Gray {
		g := New(16, 16)
		g.Fill(128)
		rng := rand.New(rand.NewSource(99))
		g.AddNoise(5, rng.NormFloat64)
		return g
	}
	a, b := mk(), mk()
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("noise with same seed should be identical")
		}
	}
	// Noise actually changed something.
	changed := false
	for _, p := range a.Pix {
		if p != 128 {
			changed = true
		}
	}
	if !changed {
		t.Error("noise had no effect")
	}
	// sigma<=0 is a no-op.
	c := New(4, 4)
	c.Fill(7)
	c.AddNoise(0, func() float64 { return 100 })
	if c.AtClamped(0, 0) != 7 {
		t.Error("zero sigma should not change pixels")
	}
}
