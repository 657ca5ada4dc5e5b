package img

import (
	"math"
	"math/rand"
	"testing"
)

// oracleNCC is what the fused matcher must reproduce: img.NCC on a
// plain crop of the window.
func oracleNCC(t *testing.T, g *Gray, tpl *Gray, x, y int) float64 {
	t.Helper()
	crop, err := g.CropInto(Rect{X: x, Y: y, W: tpl.W, H: tpl.H}, nil)
	if err != nil {
		t.Fatalf("crop (%d,%d) %dx%d: %v", x, y, tpl.W, tpl.H, err)
	}
	return NCC(crop, tpl)
}

// scenicImage builds a frame with structure the detector actually
// sees: flat background, noise, gradient bands, and bright blobs.
func scenicImage(w, h int, seed int64) *Gray {
	rng := rand.New(rand.NewSource(seed))
	g := New(w, h)
	g.Fill(uint8(40 + rng.Intn(40)))
	for i := range g.Pix {
		if rng.Intn(3) == 0 {
			g.Pix[i] = uint8(int(g.Pix[i]) + rng.Intn(25))
		}
	}
	for b := 0; b < 6; b++ {
		v := uint8(90 + rng.Intn(160))
		bw, bh := 10+rng.Intn(60), 10+rng.Intn(60)
		bx, by := rng.Intn(w), rng.Intn(h)
		fillRect(g, Rect{X: bx, Y: by, W: bw, H: bh}, v)
	}
	// One flat strip so some windows are exactly degenerate.
	fillRect(g, Rect{X: 0, Y: h - 12, W: w, H: 12}, 77)
	return g
}

// TestMatcherMatchesOracle is the fused-vs-oracle equivalence suite:
// random structured images × the detector's template scales × stride
// offsets including edge-hugging windows, with Score compared against
// NCC-on-a-crop at 1e-9.
func TestMatcherMatchesOracle(t *testing.T) {
	scales := []struct{ w, h int }{{20, 24}, {28, 34}, {40, 48}, {80, 96}}
	for seed := int64(1); seed <= 4; seed++ {
		g := scenicImage(160, 140, seed)
		in, sq := BuildIntegrals(g, nil, nil)
		for _, sc := range scales {
			tpl := scenicImage(sc.w, sc.h, seed*131+int64(sc.h))
			m := NewTemplateMatcher(tpl)
			stride := sc.h / 4
			for y := 0; y+sc.h <= g.H; y += stride {
				for x := 0; x+sc.w <= g.W; x += stride {
					checkWindow(t, m, g, in, sq, tpl, x, y)
				}
			}
			// Edge-hugging windows the strided grid may miss.
			for _, pos := range [][2]int{
				{0, 0}, {g.W - sc.w, 0}, {0, g.H - sc.h}, {g.W - sc.w, g.H - sc.h},
				{g.W - sc.w - 1, g.H - sc.h - 1},
			} {
				checkWindow(t, m, g, in, sq, tpl, pos[0], pos[1])
			}
		}
	}
}

func checkWindow(t *testing.T, m *TemplateMatcher, g *Gray, in *Integral, sq *IntegralSq, tpl *Gray, x, y int) {
	t.Helper()
	want := oracleNCC(t, g, tpl, x, y)
	got := m.Score(g, in, sq, x, y)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Score(%d,%d) %dx%d = %v, oracle %v (diff %g)",
			x, y, m.W, m.H, got, want, got-want)
	}
}

// TestMatcherFlatWindows pins the degenerate cases: a flat window
// against a textured template scores 0; a flat window against a flat
// template scores 1 only when the means agree.
func TestMatcherFlatWindows(t *testing.T) {
	g := New(64, 64)
	g.Fill(50)
	fillRect(g, Rect{X: 32, Y: 0, W: 32, H: 64}, 200)
	in, sq := BuildIntegrals(g, nil, nil)

	textured := scenicImage(16, 16, 9)
	m := NewTemplateMatcher(textured)
	if s := m.Score(g, in, sq, 0, 0); s != 0 {
		t.Errorf("flat window vs textured template = %v, want 0", s)
	}
	if s := oracleNCC(t, g, textured, 0, 0); s != 0 {
		t.Errorf("oracle disagrees on flat window: %v", s)
	}

	flat50 := New(16, 16)
	flat50.Fill(50)
	mf := NewTemplateMatcher(flat50)
	if s := mf.Score(g, in, sq, 0, 0); s != 1 {
		t.Errorf("flat-50 window vs flat-50 template = %v, want 1", s)
	}
	if s := mf.Score(g, in, sq, 40, 0); s != 0 {
		t.Errorf("flat-200 window vs flat-50 template = %v, want 0", s)
	}
}

// --- benchmarks for the kernel pieces ---

func benchImage(w, h int, seed int64) *Gray {
	rng := rand.New(rand.NewSource(seed))
	g := New(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

// BenchmarkBuildIntegrals measures the per-frame table build the
// extraction engine pays once per (camera, frame).
func BenchmarkBuildIntegrals(b *testing.B) {
	g := benchImage(640, 480, 1)
	var in *Integral
	var sq *IntegralSq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, sq = BuildIntegrals(g, in, sq)
	}
}

// BenchmarkTemplateScore measures one full fused window score at the
// detector's largest scale (96×80), the worst-case kernel invocation.
func BenchmarkTemplateScore(b *testing.B) {
	g := benchImage(640, 480, 1)
	in, sq := BuildIntegrals(g, nil, nil)
	m := NewTemplateMatcher(benchImage(80, 96, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(g, in, sq, (i*7)%(640-80), (i*13)%(480-96))
	}
}
