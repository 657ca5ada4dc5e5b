package lbp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
)

func TestCode3x3FlatImage(t *testing.T) {
	g := img.New(5, 5)
	g.Fill(100)
	// All neighbours equal centre → all bits set (≥ comparison).
	if got := Code3x3(g, 2, 2); got != 0xFF {
		t.Errorf("flat code = %08b, want 11111111", got)
	}
}

func TestCode3x3BrightCenter(t *testing.T) {
	g := img.New(3, 3)
	g.Fill(10)
	g.Set(1, 1, 200)
	if got := Code3x3(g, 1, 1); got != 0 {
		t.Errorf("bright centre code = %08b, want 0", got)
	}
}

func TestCode3x3Gradient(t *testing.T) {
	// Horizontal ramp: right neighbours brighter than centre.
	g := img.New(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			g.Set(x, y, uint8(x*100))
		}
	}
	code := Code3x3(g, 1, 1)
	// Bits 2,3,4 (top-right, right, bottom-right) must be set; bits
	// 0,6,7 (left column) clear.
	for _, b := range []uint{2, 3, 4} {
		if code&(1<<b) == 0 {
			t.Errorf("bit %d should be set in %08b", b, code)
		}
	}
	for _, b := range []uint{0, 6, 7} {
		if code&(1<<b) != 0 {
			t.Errorf("bit %d should be clear in %08b", b, code)
		}
	}
}

func TestTransitions(t *testing.T) {
	cases := map[uint8]int{
		0b00000000: 0,
		0b11111111: 0,
		0b00001111: 2,
		0b01010101: 8,
		0b00011000: 2,
		0b10000001: 2, // circular: wraps around
	}
	for code, want := range cases {
		if got := transitions(code); got != want {
			t.Errorf("transitions(%08b) = %d, want %d", code, got, want)
		}
	}
}

func TestUniformMapProperties(t *testing.T) {
	// All uniform codes get distinct bins < 58; non-uniform share 58.
	seen := make(map[uint8]bool)
	for c := 0; c < 256; c++ {
		bin := UniformBin(uint8(c))
		if transitions(uint8(c)) <= 2 {
			if bin >= NumUniformBins-1 {
				t.Errorf("uniform code %08b in overflow bin", c)
			}
			if seen[uint8(bin)] {
				t.Errorf("bin %d reused", bin)
			}
			seen[uint8(bin)] = true
		} else if bin != NumUniformBins-1 {
			t.Errorf("non-uniform code %08b in bin %d", c, bin)
		}
	}
	if len(seen) != 58 {
		t.Errorf("%d uniform bins used, want 58", len(seen))
	}
}

func TestHistogramNormalised(t *testing.T) {
	g := img.New(32, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	codes := ImageInto(g, nil)
	h := make([]float64, NumUniformBins)
	histogramInto(h, codes, img.Rect{X: 0, Y: 0, W: 32, H: 32})
	var sum float64
	for _, v := range h {
		if v < 0 {
			t.Fatal("negative histogram entry")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram mass = %v, want 1", sum)
	}
	// Empty region: all zeros.
	histogramInto(h, codes, img.Rect{X: 100, Y: 100, W: 5, H: 5})
	for _, v := range h {
		if v != 0 {
			t.Error("empty region histogram should be zero")
		}
	}
}

func TestGridDescriptor(t *testing.T) {
	g := img.New(64, 64)
	rng := rand.New(rand.NewSource(2))
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	d, err := GridDescriptorInto(g, 4, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 4*4*NumUniformBins {
		t.Fatalf("descriptor length %d", len(d))
	}
	// Each cell sums to 1.
	for c := 0; c < 16; c++ {
		var s float64
		for i := 0; i < NumUniformBins; i++ {
			s += d[c*NumUniformBins+i]
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("cell %d mass %v", c, s)
		}
	}
	if _, err := GridDescriptorInto(g, 0, 4, nil, nil); !errors.Is(err, ErrBadParams) {
		t.Error("zero grid should fail")
	}
	small := img.New(2, 2)
	if _, err := GridDescriptorInto(small, 4, 4, nil, nil); !errors.Is(err, ErrBadParams) {
		t.Error("grid larger than image should fail")
	}
}

func TestDescriptorDiscriminates(t *testing.T) {
	// Descriptors of structurally different images should be farther
	// apart than descriptors of the same image with mild noise.
	base := img.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			base.Set(x, y, uint8((x*4+y)%256))
		}
	}
	noisy, _ := img.FromPix(64, 64, append([]uint8(nil), base.Pix...))
	rng := rand.New(rand.NewSource(3))
	noisy.AddNoise(3, rng.NormFloat64)
	other := img.New(64, 64)
	other.FillCircle(32, 32, 20, 220)

	dBase, _ := GridDescriptorInto(base, 4, 4, nil, nil)
	dNoisy, _ := GridDescriptorInto(noisy, 4, 4, nil, nil)
	dOther, _ := GridDescriptorInto(other, 4, 4, nil, nil)

	// L1 distance between descriptors.
	dist := func(a, b []float64) float64 {
		var d float64
		for i := range a {
			d += math.Abs(a[i] - b[i])
		}
		return d
	}
	near := dist(dBase, dNoisy)
	far := dist(dBase, dOther)
	if near >= far {
		t.Errorf("noise distance %v should be < structural distance %v", near, far)
	}
}

func TestImageDeterministic(t *testing.T) {
	g := img.New(16, 16)
	rng := rand.New(rand.NewSource(4))
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	a, b := ImageInto(g, nil), ImageInto(g, nil)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("LBP image not deterministic")
		}
	}
}

// imageOracle is the reference code image: Code3x3 at every pixel.
func imageOracle(g *img.Gray) *img.Gray {
	out := img.New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.Pix[y*g.W+x] = Code3x3(g, x, y)
		}
	}
	return out
}

// TestImageIntoMatchesOracle checks ImageInto against the per-pixel
// Code3x3 oracle on every shape from 1×1 to 64×64 — the 1- and 2-wide
// and 1- and 2-high shapes have no interior — over few-valued images
// (ties exercise the ≥ test), full-range noise and flat images, reusing
// one destination buffer across shapes.
func TestImageIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dst *img.Gray
	for w := 1; w <= 64; w++ {
		for h := 1; h <= 64; h++ {
			g := img.New(w, h)
			flat := uint8(rng.Intn(256))
			for i := range g.Pix {
				switch (w + h) % 3 {
				case 0:
					g.Pix[i] = flat
				case 1:
					g.Pix[i] = uint8(rng.Intn(3)) * 100
				default:
					g.Pix[i] = uint8(rng.Intn(256))
				}
			}
			dst = ImageInto(g, dst)
			want := imageOracle(g)
			for i := range want.Pix {
				if dst.Pix[i] != want.Pix[i] {
					t.Fatalf("%dx%d (kind %d) pixel (%d,%d): code %08b, oracle %08b",
						w, h, (w+h)%3, i%w, i/w, dst.Pix[i], want.Pix[i])
				}
			}
		}
	}
}
