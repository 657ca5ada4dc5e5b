package img

import (
	"fmt"
	"math"
)

// TemplateMatcher scores the normalised cross-correlation of one fixed
// template against arbitrary windows of a frame, evaluated in place —
// no window crop, no per-window mean pass. Because the zero-mean
// template tpl′ = tpl − mean satisfies Σ tpl′ = 0, the NCC numerator
// collapses to Σ tpl′·f = Σ tpl·f − mean·Σf: an exact uint8 integer
// dot product plus one integral-table lookup, with the denominator's
// window term another O(1) lookup pair. Scores are semantically
// identical to img.NCC on a crop of the window (the retained oracle),
// agreeing to well within 1e-9 — the integer numerator carries two
// float roundings total where the oracle accumulates thousands.
//
// A matcher is immutable after construction and safe for concurrent
// use.
type TemplateMatcher struct {
	// W, H are the template (and therefore window) dimensions.
	W, H int
	// mean is the template's mean intensity, computed exactly as
	// Gray.Mean so the degenerate flat-vs-flat comparison matches the
	// oracle bit for bit.
	mean float64
	// norm2 is Σ tpl′², accumulated in the oracle's pixel order so the
	// denominator matches img.NCC's template term exactly.
	norm2 float64
	// tpl is the template's pixels, row-major — the integer half of
	// the fused dot product.
	tpl []uint8
}

// NewTemplateMatcher precomputes the zero-mean form of tpl. It panics
// for a template larger than MaxExactRegionPixels (66 051 pixels, about
// 257×257), whose dot product could overflow the scoring kernel.
func NewTemplateMatcher(tpl *Gray) *TemplateMatcher {
	if tpl.W*tpl.H > MaxExactRegionPixels {
		panic(fmt.Sprintf("img: %dx%d template too large for the matcher", tpl.W, tpl.H))
	}
	m := &TemplateMatcher{W: tpl.W, H: tpl.H, mean: tpl.Mean()}
	m.tpl = append([]uint8(nil), tpl.Pix...)
	for _, p := range tpl.Pix {
		z := float64(p) - m.mean
		m.norm2 += z * z
	}
	return m
}

// Score returns the exact NCC(window, template) for the W×H window of
// g anchored at (x, y): ScoreCascade without the variance gate. The
// window must lie fully inside g, and in/sq must be the summed-area
// tables of g.
func (m *TemplateMatcher) Score(g *Gray, in *Integral, sq *IntegralSq, x, y int) float64 {
	s, _ := m.ScoreCascade(g, in, sq, x, y, -1)
	return s
}

// ScoreCascade scores the window anchored at (x, y) behind the
// variance gate: (score, true) is the exact fused NCC, (0, false) a
// window the gate skipped.
//
// Variance gate: windows whose exact-integer intensity variance (from
// the plain and squared integral tables) is below minVar are skipped
// before any scoring work. Pass a negative minVar to disable it. The
// gate compares the exact-integer variance where a crop-based caller
// would compare float-accumulated Gray.Variance — the two agree to
// ~1e-12 relative, so a window whose true variance sits within rounding
// distance of minVar could in principle gate differently; thresholds
// are tuning knobs, not contract boundaries, and the seeded equivalence
// suite pins the behaviour empirically.
//
// A window past the gate is scored in full: one dotWindow call forms
// the exact integer Σ tpl·f over the whole window, and the numerator
// Σ tpl·f − mean·Σf and the denominator come from the tables. No
// partial-score bound rejects it first: measured on the pipeline's
// frames, such bounds cost more than the scoring they saved (DESIGN.md
// §12).
func (m *TemplateMatcher) ScoreCascade(g *Gray, in *Integral, sq *IntegralSq, x, y int, minVar float64) (float64, bool) {
	w, h := m.W, m.H
	n := uint64(w * h)
	win := Rect{X: x, Y: y, W: w, H: h}
	s := in.RegionSumUnclipped(win)
	q := sq.RegionSumUnclipped(win)
	if minVar >= 0 && float64(n*q-s*s)/float64(n*n) < minVar {
		return 0, false
	}
	// Window deviation mass Σ(p−mean)² = (n·Σp² − (Σp)²)/n: numerator
	// exact in uint64 (non-negative by Cauchy–Schwarz), one rounding.
	da := float64(n*q-s*s) / float64(n)
	db := m.norm2
	if da == 0 && db == 0 {
		// Flat window, flat template: match only when the means agree
		// (the oracle's degenerate rule).
		if float64(s)/float64(n) == m.mean {
			return 1, true
		}
		return 0, true
	}
	if da == 0 || db == 0 {
		return 0, true
	}
	ip := dotWindow(&m.tpl[0], &g.Pix[y*g.W+x], w, h, g.W)
	num := float64(ip) - m.mean*float64(s)
	return num / math.Sqrt(da*db), true
}
