package img

import (
	"math"
	"sort"
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
	// order visits template rows by decreasing energy Σ tpl′², so the
	// remaining-template mass in the early-out bound collapses after
	// the discriminative rows instead of decaying uniformly.
	order []int32
	// tailSum[k] is Σ tpl′ over the rows order[k:] (exact) and
	// tailSq[k] is Σ tpl′² over order[k:] — the Cauchy–Schwarz factors
	// behind the early-out bound. Both have length H+1.
	tailSum, tailSq []float64
	// tiers is the pyramid reject ladder, coarsest block size first:
	// each tier bounds the NCC numerator from one block-sum level of
	// the frame pyramid, so cheap wide blocks reject the bulk of the
	// windows before the finer (4× longer) tier runs, and only its
	// survivors reach the exact kernel. See ScoreCascade.
	tiers []pyrTier
}

// pyrTier is one level of the pyramid reject ladder: the template
// projections onto the k×k block grid, one per window-anchor parity
// class (k² of them, indexed (y%k)*k + (x%k)).
type pyrTier struct {
	k   int
	par []pyrParity
}

// pyrParity is the template side of the pyramid reject tier for one
// anchor parity: template pixels grouped by the frame-aligned
// pyrK×pyrK block they fall into when the window anchor has this
// parity. t holds each group's Σ tpl′ (nby×nbx, row-major, matching
// the block grid the window covers) and p the total residual template
// energy — Σ over groups of E_G − T_G²/k² for full groups (centred:
// a full group covers its whole block, so the group's frame sum is the
// block sum exactly) and the uncentred E_G for partial edge groups.
type pyrParity struct {
	nbx, nby int
	t        []float64
	p        float64
}

// NewTemplateMatcher precomputes the zero-mean form of tpl.
func NewTemplateMatcher(tpl *Gray) *TemplateMatcher {
	m := &TemplateMatcher{W: tpl.W, H: tpl.H, mean: tpl.Mean()}
	m.tpl = append([]uint8(nil), tpl.Pix...)
	for _, p := range tpl.Pix {
		z := float64(p) - m.mean
		m.norm2 += z * z
	}
	rowSum := make([]float64, tpl.H)
	rowSq := make([]float64, tpl.H)
	for j := 0; j < tpl.H; j++ {
		var rs, rq float64
		for _, p := range tpl.Pix[j*tpl.W : (j+1)*tpl.W] {
			z := float64(p) - m.mean
			rs += z
			rq += z * z
		}
		rowSum[j], rowSq[j] = rs, rq
	}
	m.order = make([]int32, tpl.H)
	for j := range m.order {
		m.order[j] = int32(j)
	}
	sort.SliceStable(m.order, func(a, b int) bool {
		return rowSq[m.order[a]] > rowSq[m.order[b]]
	})
	m.tailSum = make([]float64, tpl.H+1)
	m.tailSq = make([]float64, tpl.H+1)
	for k := tpl.H - 1; k >= 0; k-- {
		j := m.order[k]
		m.tailSum[k] = m.tailSum[k+1] + rowSum[j]
		m.tailSq[k] = m.tailSq[k+1] + rowSq[j]
	}
	// Pyramid reject ladder, coarsest first. In practice a single tier
	// per template wins: small templates bound against the 2×2 level
	// (enough blocks to discriminate), large ones against 4×4 (quarter
	// the dot-product length). Coarser first tiers (8×8, or 4×4 for
	// small templates) were measured and lost — their residual energy P
	// is too large to reject much, so both tiers end up running on most
	// windows.
	ks := []int{2}
	if tpl.H >= 48 {
		ks = []int{4}
	}
	for _, k := range ks {
		m.tiers = append(m.tiers, buildPyrTier(tpl, m.mean, k))
	}
	return m
}

// buildPyrTier precomputes the template side of one pyramid-ladder
// level: per anchor parity, the per-group Σ tpl′ projections and the
// residual template energy P (see ScoreCascade).
func buildPyrTier(tpl *Gray, mean float64, k int) pyrTier {
	tier := pyrTier{k: k, par: make([]pyrParity, k*k)}
	for py := 0; py < k; py++ {
		for px := 0; px < k; px++ {
			nbx := (px+tpl.W-1)/k + 1
			nby := (py+tpl.H-1)/k + 1
			t := make([]float64, nbx*nby)
			e := make([]float64, nbx*nby)
			cnt := make([]int32, nbx*nby)
			for ty := 0; ty < tpl.H; ty++ {
				gr := (py + ty) / k
				for tx := 0; tx < tpl.W; tx++ {
					z := float64(tpl.Pix[ty*tpl.W+tx]) - mean
					gi := gr*nbx + (px+tx)/k
					t[gi] += z
					e[gi] += z * z
					cnt[gi]++
				}
			}
			var p float64
			for gi := range t {
				if cnt[gi] == int32(k*k) {
					p += e[gi] - t[gi]*t[gi]/float64(k*k)
				} else {
					p += e[gi]
				}
			}
			if p < 0 {
				p = 0
			}
			tier.par[py*k+px] = pyrParity{nbx: nbx, nby: nby, t: t, p: p}
		}
	}
	return tier
}

// Score returns the exact NCC(window, template) for the W×H window of
// g anchored at (x, y): ScoreCascade with every early-out off. It is
// the reference the cascade's accepted scores are compared against.
// The window must lie fully inside g, and in/sq must be the summed-area
// tables of g.
func (m *TemplateMatcher) Score(g *Gray, in *Integral, sq *IntegralSq, x, y int) float64 {
	s, _ := m.ScoreCascade(g, in, sq, nil, x, y, -2, -1)
	return s
}

// ScoreCascade scores the window anchored at (x, y) behind a ladder of
// rejects, each of which proves score < bound without finishing the
// window: (score, true) is the exact fused value, (0, false) a skip.
//
// Variance gate: windows whose intensity variance (the exact-integer
// RegionVariance value) is below minVar are skipped before any scoring
// work. Pass a negative minVar to disable it. The gate compares the
// exact-integer variance where a crop-based caller would compare
// float-accumulated Gray.Variance — the two agree to ~1e-12 relative,
// so a window whose true variance sits within rounding distance of
// minVar could in principle gate differently; thresholds are tuning
// knobs, not contract boundaries, and the seeded equivalence suite pins
// the behaviour empirically.
//
// Pyramid tier: before any full-resolution pixel is read, the NCC
// numerator is bounded from the frame's block-sum pyramid (DESIGN.md
// §12). Per template group G inside block B (nominal block mean
// c = S_B/k²),
//
//	Σ_G tpl′·f ≤ T_G·c + √ê_G·√(Σ_B (f−c)²)
//
// by Cauchy–Schwarz (centred through the group mean for full groups,
// where Σ_G f = S_B exactly), so summing groups and applying
// Cauchy–Schwarz once more over the per-block factors,
//
//	num ≤ dot(T, S)/k² + √(P · devsum)
//
// with dot(T, S) a short contiguous dot product over the block grid,
// P the parity's residual template energy, and devsum =
// ΣQ − ΣS²/k² ≥ Σ_B Σ_G (f−c)² the covered blocks' deviation mass
// (ΣQ one squared-table probe, ΣS² accumulated inside the dot loop —
// for frame-edge partial blocks the k² denominator overestimates the
// true deviation, which only loosens the bound).
//
// Row early-out: survivors reach scoreRows, which stops scanning once
// the unseen rows cannot lift the numerator to the threshold.
//
// Every skip is sound under a 1e-6 (score units) margin: it dwarfs the
// float rounding the bound arithmetic can accumulate — the pyramid
// tier's float dot product and the per-row deviation tracking — so a
// skip always proves score < bound, and no real score sits within 1e-6
// of a threshold in the seeded suites (the kernel's exact integer paths
// keep accepted scores within 1e-9 of the oracle). Callers comparing
// the result against bound therefore make decisions identical to the
// exhaustive oracle.
//
// pyr must be the pyramid of g. A bound ≤ -1 disables the pyramid tier
// and the row early-out (pyr is then unused and may be nil).
func (m *TemplateMatcher) ScoreCascade(g *Gray, in *Integral, sq *IntegralSq, pyr *Pyramid, x, y int, bound, minVar float64) (float64, bool) {
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
	den := math.Sqrt(da * db)
	// Early-out threshold in numerator units, with the safety margin;
	// −∞ when the early-outs are off, which no bound can fall below.
	cut := math.Inf(-1)
	if bound > -1 {
		cut = (bound - 1e-6) * den
		for ti := range m.tiers {
			if m.pyrBound(&m.tiers[ti], sq, pyr, x, y) < cut {
				return 0, false
			}
		}
	}
	return m.scoreRows(g, in, sq, x, y, s, da, den, cut)
}

// scoreRows is the exact row-scan kernel: the fused integer dot product
// Σ tpl·f accumulated row by row, template rows in decreasing-energy
// order, with a Cauchy–Schwarz early-out on the rows not yet scanned.
// s must be the window's pixel sum, da its deviation mass, den the NCC
// denominator and cut the early-out threshold in numerator units.
func (m *TemplateMatcher) scoreRows(g *Gray, in *Integral, sq *IntegralSq, x, y int, s uint64, da, den, cut float64) (float64, bool) {
	w, h := m.W, m.H
	n := uint64(w * h)
	mw := float64(s) / float64(n)
	stride := g.W
	base := y*stride + x
	tstride := in.W + 1
	var ip int64  // Σ tpl·f over the scanned rows — exact
	var sf uint64 // Σ f over the scanned rows — exact, from the table
	wf := float64(w)
	// daRem tracks the deviation mass Σ(f−mw)² of the rows not yet
	// scanned: each scanned row's exact deviation (from the two tables)
	// is peeled off the window total, so the tail bound below tightens as
	// fast as the window's own structure is consumed instead of assuming
	// every unseen row could still carry the whole window's deviation.
	// Near-miss windows — the refinement climb's staple — concentrate
	// their deviation in the same high-energy rows the scan order visits
	// first, so the bound collapses early.
	daRem := da
	for k := 0; k < h; k++ {
		j := int(m.order[k])
		// Exact integer dot product of one template row against the
		// frame row under it — SIMD on amd64, bit-identical everywhere.
		ip += dotRow(&m.tpl[j*w], &g.Pix[base+j*stride], w)
		if k == h-1 {
			continue
		}
		// Partial numerator over the scanned rows: Σ tpl′·f =
		// Σ tpl·f − mean·Σf, the row's Σf and Σf² two-load table
		// lookups each (adjacent table rows, four corners).
		ro := (y+j)*tstride + x
		rowS := uint64(in.Sum[ro+tstride+w] - in.Sum[ro+w] - in.Sum[ro+tstride] + in.Sum[ro])
		rowQ := sq.Sum[ro+tstride+w] - sq.Sum[ro+w] - sq.Sum[ro+tstride] + sq.Sum[ro]
		sf += rowS
		// The row's exact deviation about the window mean:
		// Σ_x (f−mw)² = Σf² − mw·(2Σf − w·mw).
		daRem -= float64(rowQ) - mw*(2*float64(rowS)-wf*mw)
		num := float64(ip) - m.mean*float64(sf)
		// Cauchy–Schwarz over the unseen rows, whichever they are — valid
		// for any row subset since window deviation terms are
		// non-negative: Σ_rem (f−mw)² = daRem exactly, so reject when
		// num + mw·ΣtailTpl′ + √(tailSq·daRem) < cut — compared in
		// squared form to keep √ out of the row loop.
		rem := cut - num - mw*m.tailSum[k+1]
		if rem > 0 {
			d := daRem
			if d < 0 {
				d = 0
			}
			if m.tailSq[k+1]*d < rem*rem {
				return 0, false
			}
		}
	}
	// Over the whole window Σf is the window sum itself, so the exact
	// numerator needs no per-row bookkeeping.
	num := float64(ip) - m.mean*float64(s)
	return num / den, true
}

// pyrBound returns the pyramid tier's upper bound on the NCC numerator
// for the window anchored at (x, y) — see ScoreCascade for the
// derivation.
func (m *TemplateMatcher) pyrBound(tier *pyrTier, sq *IntegralSq, pyr *Pyramid, x, y int) float64 {
	k := tier.k
	par := &tier.par[(y%k)*k+(x%k)]
	bx0, by0 := x/k, y/k
	sArr, sw := pyr.Level(k)
	var dot float64
	var ssq uint64
	for r := 0; r < par.nby; r++ {
		off := (by0+r)*sw + bx0
		srow := sArr[off : off+par.nbx]
		trow := par.t[r*par.nbx : (r+1)*par.nbx]
		trow = trow[:len(srow)]
		var d0, d1 float64
		var q0 uint64
		i := 0
		for ; i <= len(srow)-4; i += 4 {
			s0, s1 := uint64(srow[i]), uint64(srow[i+1])
			s2, s3 := uint64(srow[i+2]), uint64(srow[i+3])
			d0 += trow[i]*float64(s0) + trow[i+2]*float64(s2)
			d1 += trow[i+1]*float64(s1) + trow[i+3]*float64(s3)
			q0 += s0*s0 + s1*s1 + s2*s2 + s3*s3
		}
		for ; i < len(srow); i++ {
			sv := uint64(srow[i])
			d0 += trow[i] * float64(sv)
			q0 += sv * sv
		}
		dot += d0 + d1
		ssq += q0
	}
	// ΣQ over the exact pixel footprint of the covered blocks, clipped
	// to the frame for edge blocks.
	px1, py1 := (bx0+par.nbx)*k, (by0+par.nby)*k
	if px1 > pyr.W {
		px1 = pyr.W
	}
	if py1 > pyr.H {
		py1 = pyr.H
	}
	qsum := sq.RegionSumUnclipped(Rect{X: bx0 * k, Y: by0 * k, W: px1 - bx0*k, H: py1 - by0*k})
	kk := float64(k * k)
	devsum := float64(qsum) - float64(ssq)/kk
	if devsum < 0 {
		devsum = 0
	}
	return dot/kk + math.Sqrt(par.p*devsum)
}
