package img

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomImage(w, h int, seed int64) *Gray {
	g := New(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

func TestHistMass(t *testing.T) {
	g := randomImage(64, 48, 1)
	h := g.Hist()
	if h.Total() != 64*48 {
		t.Errorf("hist mass = %d, want %d", h.Total(), 64*48)
	}
}

func TestChiSquareProperties(t *testing.T) {
	a := randomImage(32, 32, 2).Hist()
	b := randomImage(32, 32, 3).Hist()
	if d := a.ChiSquare(a); d > 1e-12 {
		t.Errorf("self distance = %v, want 0", d)
	}
	dab, dba := a.ChiSquare(b), b.ChiSquare(a)
	if math.Abs(dab-dba) > 1e-12 {
		t.Error("χ² should be symmetric")
	}
	if dab < 0 || dab > 1 {
		t.Errorf("χ² = %v outside [0,1]", dab)
	}
	// Disjoint supports: maximum distance 1.
	dark := New(4, 4)
	bright := New(4, 4)
	bright.Fill(255)
	if d := dark.Hist().ChiSquare(bright.Hist()); math.Abs(d-1) > 1e-12 {
		t.Errorf("disjoint χ² = %v, want 1", d)
	}
	var empty Histogram
	if empty.ChiSquare(empty) != 0 {
		t.Error("two empty hists should be identical")
	}
	if empty.ChiSquare(a) != 1 {
		t.Error("empty vs non-empty should be max distance")
	}
}

func TestIntersectionSimilarity(t *testing.T) {
	a := randomImage(16, 16, 4).Hist()
	if s := a.Intersection(a); math.Abs(s-1) > 1e-12 {
		t.Errorf("self intersection = %v", s)
	}
	dark := New(4, 4).Hist()
	bright := New(4, 4)
	bright.Fill(255)
	if s := dark.Intersection(bright.Hist()); s != 0 {
		t.Errorf("disjoint intersection = %v", s)
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	b.Fill(10)
	if d := MeanAbsDiff(a, b); d != 10 {
		t.Errorf("MAD = %v, want 10", d)
	}
	if d := MeanAbsDiff(a, a); d != 0 {
		t.Errorf("self MAD = %v", d)
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	g := randomImage(23, 17, 5)
	in := NewIntegral(g)
	rects := []Rect{
		{0, 0, 23, 17}, {0, 0, 1, 1}, {5, 3, 7, 9}, {22, 16, 1, 1}, {-3, -3, 10, 10},
	}
	for _, r := range rects {
		var want uint64
		c := r.Intersect(Rect{0, 0, g.W, g.H})
		for y := c.Y; y < c.Y+c.H; y++ {
			for x := c.X; x < c.X+c.W; x++ {
				want += uint64(g.Pix[y*g.W+x])
			}
		}
		if got := in.RegionSum(r); got != want {
			t.Errorf("RegionSum(%v) = %d, want %d", r, got, want)
		}
	}
	if in.RegionSum(Rect{50, 50, 3, 3}) != 0 {
		t.Error("fully OOB region should sum to 0")
	}
}

func TestIntegralProperty(t *testing.T) {
	g := randomImage(31, 29, 6)
	in := NewIntegral(g)
	f := func(x8, y8, w8, h8 uint8) bool {
		r := Rect{int(x8%31) - 2, int(y8%29) - 2, int(w8%12) + 1, int(h8%12) + 1}
		var want uint64
		c := r.Intersect(Rect{0, 0, g.W, g.H})
		for y := c.Y; y < c.Y+c.H; y++ {
			for x := c.X; x < c.X+c.W; x++ {
				want += uint64(g.Pix[y*g.W+x])
			}
		}
		return in.RegionSum(r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNCC(t *testing.T) {
	a := randomImage(16, 16, 7)
	if c := NCC(a, a); math.Abs(c-1) > 1e-12 {
		t.Errorf("self NCC = %v", c)
	}
	inv := New(16, 16)
	for i, p := range a.Pix {
		inv.Pix[i] = 255 - p
	}
	if c := NCC(a, inv); c > -0.99 {
		t.Errorf("inverted NCC = %v, want ≈ -1", c)
	}
	flat := New(16, 16)
	flat.Fill(100)
	if c := NCC(flat, flat); c != 1 {
		t.Errorf("flat-flat NCC = %v, want 1", c)
	}
	if c := NCC(flat, a); c != 0 {
		t.Errorf("flat-random NCC = %v, want 0", c)
	}
}

// TestNCCFlatMismatch is the degenerate-flat regression: two flat
// images with different means used to "correlate 1"; they must only
// correlate 1 when the means match too.
func TestNCCFlatMismatch(t *testing.T) {
	dark := New(8, 8)
	dark.Fill(50)
	bright := New(8, 8)
	bright.Fill(200)
	if c := NCC(dark, bright); c != 0 {
		t.Errorf("flat-50 vs flat-200 NCC = %v, want 0", c)
	}
	same := New(8, 8)
	same.Fill(50)
	if c := NCC(dark, same); c != 1 {
		t.Errorf("flat-50 vs flat-50 NCC = %v, want 1", c)
	}
}

func TestIntegralSqMatchesBruteForce(t *testing.T) {
	g := randomImage(23, 17, 8)
	_, sq := BuildIntegrals(g, nil, nil)
	rects := []Rect{
		{0, 0, 23, 17}, {0, 0, 1, 1}, {5, 3, 7, 9}, {22, 16, 1, 1}, {0, 0, 7, 7},
	}
	for _, r := range rects {
		var want uint64
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				p := uint64(g.Pix[y*g.W+x])
				want += p * p
			}
		}
		if got := sq.RegionSumUnclipped(r); got != want {
			t.Errorf("IntegralSq.RegionSumUnclipped(%v) = %d, want %d", r, got, want)
		}
	}
}

// TestUnclippedFastPaths checks the unclipped lookups agree exactly
// with the clipped ones for in-bounds rectangles.
func TestUnclippedFastPaths(t *testing.T) {
	g := randomImage(31, 29, 9)
	in, _ := BuildIntegrals(g, nil, nil)
	rects := []Rect{
		{0, 0, 31, 29}, {0, 0, 1, 1}, {4, 7, 12, 9}, {30, 28, 1, 1}, {10, 0, 21, 5},
	}
	for _, r := range rects {
		if a, b := in.RegionSum(r), in.RegionSumUnclipped(r); a != b {
			t.Errorf("Integral clipped %d != unclipped %d for %v", a, b, r)
		}
		if a, b := in.RegionMean(r), in.RegionMeanUnclipped(r); a != b {
			t.Errorf("RegionMean clipped %v != unclipped %v for %v", a, b, r)
		}
	}
}

// TestBuildIntegralsReuse checks that reused buffers produce identical
// tables, including across size changes (stale prefixes must clear).
func TestBuildIntegralsReuse(t *testing.T) {
	big := randomImage(40, 30, 11)
	in, sq := BuildIntegrals(big, nil, nil)
	small := randomImage(17, 13, 12)
	in, sq = BuildIntegrals(small, in, sq)
	fresh, freshSq := BuildIntegrals(small, nil, nil)
	for i := range fresh.Sum {
		if in.Sum[i] != fresh.Sum[i] {
			t.Fatalf("reused Integral differs at %d: %d vs %d", i, in.Sum[i], fresh.Sum[i])
		}
	}
	for i := range freshSq.Sum {
		if sq.Sum[i] != freshSq.Sum[i] {
			t.Fatalf("reused IntegralSq differs at %d: %d vs %d", i, sq.Sum[i], freshSq.Sum[i])
		}
	}
}
