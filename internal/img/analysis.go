package img

import (
	"fmt"
	"math"
)

// Histogram is a 256-bin intensity histogram.
type Histogram [256]uint32

// Hist computes the intensity histogram of the whole image.
func (g *Gray) Hist() Histogram {
	var h Histogram
	for _, p := range g.Pix {
		h[p]++
	}
	return h
}

// Total returns the histogram mass (pixel count).
func (h Histogram) Total() uint64 {
	var s uint64
	for _, c := range h {
		s += uint64(c)
	}
	return s
}

// ChiSquare returns the χ² distance between two histograms, each
// normalised to unit mass first; empty histograms compare as distance 0.
// This is the shot-boundary dissimilarity used by internal/parsing.
func (h Histogram) ChiSquare(o Histogram) float64 {
	th, to := float64(h.Total()), float64(o.Total())
	if th == 0 || to == 0 {
		if th == to {
			return 0
		}
		return 1
	}
	var d float64
	for i := 0; i < 256; i++ {
		a := float64(h[i]) / th
		b := float64(o[i]) / to
		if a+b > 0 {
			d += (a - b) * (a - b) / (a + b)
		}
	}
	return d / 2 // normalised to [0,1]
}

// Intersection returns the histogram-intersection similarity in [0,1]
// after normalisation (1 = identical distributions).
func (h Histogram) Intersection(o Histogram) float64 {
	th, to := float64(h.Total()), float64(o.Total())
	if th == 0 || to == 0 {
		if th == to {
			return 1
		}
		return 0
	}
	var s float64
	for i := 0; i < 256; i++ {
		s += math.Min(float64(h[i])/th, float64(o[i])/to)
	}
	return s
}

// MeanAbsDiff returns the mean absolute pixel difference between two
// equally-sized images, in intensity levels. Mismatched sizes compare the
// overlapping region after resizing the smaller to the larger — callers in
// the pipeline always pass same-sized frames, but defensive handling beats
// a panic in stream code.
func MeanAbsDiff(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		b = b.Resize(a.W, a.H)
	}
	var s uint64
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		s += uint64(d)
	}
	return float64(s) / float64(len(a.Pix))
}

// Integral is a summed-area table: Sum[y][x] holds the sum of all pixels
// strictly above and left of (x,y), so region sums are four lookups.
// Sums are stored as uint32 — any 8-bit image up to 16.8M pixels fits,
// and halving the table's footprint matters on the detection hot path,
// where building and probing the tables is bandwidth-bound. The
// constructors reject images whose total intensity could overflow.
type Integral struct {
	W, H int
	Sum  []uint32 // (W+1)*(H+1)
}

// maxIntegralPixels bounds W*H so that W*H*255 fits in uint32.
const maxIntegralPixels = (1<<32 - 1) / 255

// NewIntegral builds the summed-area table of g.
func NewIntegral(g *Gray) *Integral {
	return BuildIntegral(g, nil)
}

// BuildIntegral is NewIntegral reusing in's buffer when the capacity
// allows (nil in allocates) — the steady-state form for per-frame
// tables. It panics for images larger than 16.8M pixels, whose sums
// could overflow the uint32 table.
func BuildIntegral(g *Gray, in *Integral) *Integral {
	w, h := g.W, g.H
	if w*h > maxIntegralPixels {
		panic(fmt.Sprintf("img: %dx%d image too large for integral table", w, h))
	}
	if in == nil {
		in = &Integral{}
	}
	in.W, in.H = w, h
	in.Sum = ensureU32(in.Sum, (w+1)*(h+1))
	stride := w + 1
	clear(in.Sum[:stride]) // row 0 may hold stale data when reused
	for y := 0; y < h; y++ {
		var rowSum uint32
		in.Sum[(y+1)*stride] = 0
		for x := 0; x < w; x++ {
			rowSum += uint32(g.Pix[y*w+x])
			in.Sum[(y+1)*stride+x+1] = in.Sum[y*stride+x+1] + rowSum
		}
	}
	return in
}

// IntegralSq is a summed-area table of squared intensities: region
// sums of p² in four lookups. Together with Integral it gives any
// window's mean and variance in O(1), which is what lets the template
// matcher and the detector's variance gate skip per-window pixel
// passes entirely.
type IntegralSq struct {
	W, H int
	Sum  []uint64 // (W+1)*(H+1)
}

// BuildIntegrals builds the plain and squared summed-area tables of g
// in one pass over the pixels, reusing in and sq (and their buffers)
// when non-nil. This is the per-frame entry point of the detection hot
// path: the extraction engine builds both tables once per
// (camera, frame) and shares them across the detector's pre-filters
// and the fused matching kernel.
func BuildIntegrals(g *Gray, in *Integral, sq *IntegralSq) (*Integral, *IntegralSq) {
	w, h := g.W, g.H
	if w*h > maxIntegralPixels {
		panic(fmt.Sprintf("img: %dx%d image too large for integral table", w, h))
	}
	if in == nil {
		in = &Integral{}
	}
	if sq == nil {
		sq = &IntegralSq{}
	}
	in.W, in.H = w, h
	sq.W, sq.H = w, h
	n := (w + 1) * (h + 1)
	in.Sum = ensureU32(in.Sum, n)
	sq.Sum = ensureU64(sq.Sum, n)
	stride := w + 1
	clear(in.Sum[:stride])
	clear(sq.Sum[:stride])
	for y := 0; y < h; y++ {
		var rowSum uint32
		var rowSq uint64
		row := g.Pix[y*w : (y+1)*w]
		// Shifted equal-length views so the inner loop indexes all four
		// streams by x with no bounds checks.
		prevIn := in.Sum[y*stride+1 : (y+1)*stride][:len(row)]
		curIn := in.Sum[(y+1)*stride+1 : (y+2)*stride][:len(row)]
		prevSq := sq.Sum[y*stride+1 : (y+1)*stride][:len(row)]
		curSq := sq.Sum[(y+1)*stride+1 : (y+2)*stride][:len(row)]
		in.Sum[(y+1)*stride], sq.Sum[(y+1)*stride] = 0, 0
		for x, pi := range prevIn {
			pv := uint64(row[x])
			rowSum += uint32(pv)
			rowSq += pv * pv
			curIn[x] = pi + rowSum
			curSq[x] = prevSq[x] + rowSq
		}
	}
	return in, sq
}

// ensureU64 returns s resized to n, reusing capacity when possible.
func ensureU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// ensureU32 is ensureU64 for uint32 buffers.
func ensureU32(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}

// RegionSum returns the sum of pixels in the rectangle (clipped to the
// image).
func (in *Integral) RegionSum(r Rect) uint64 {
	c := r.Intersect(Rect{0, 0, in.W, in.H})
	if c.Area() == 0 {
		return 0
	}
	return in.RegionSumUnclipped(c)
}

// RegionSumUnclipped is RegionSum without the clip: r must lie fully
// inside the image. It is the fast path for interior windows — the
// detector's scan windows are in-bounds by construction, so they skip
// the two Intersect calls per lookup.
// The four-corner combination is exact in uint32 modular arithmetic
// because the true region sum always fits.
func (in *Integral) RegionSumUnclipped(r Rect) uint64 {
	stride := in.W + 1
	x0, y0, x1, y1 := r.X, r.Y, r.X+r.W, r.Y+r.H
	return uint64(in.Sum[y1*stride+x1] - in.Sum[y0*stride+x1] - in.Sum[y1*stride+x0] + in.Sum[y0*stride+x0])
}

// RegionMean returns the mean intensity over the rectangle (0 when
// empty). The rectangle is clipped once; the sum lookup reuses the
// clipped rect instead of re-intersecting.
func (in *Integral) RegionMean(r Rect) float64 {
	c := r.Intersect(Rect{0, 0, in.W, in.H})
	a := c.Area()
	if a == 0 {
		return 0
	}
	return float64(in.RegionSumUnclipped(c)) / float64(a)
}

// RegionMeanUnclipped is RegionMean for rectangles known to lie fully
// inside the image (no clipping, no emptiness check).
func (in *Integral) RegionMeanUnclipped(r Rect) float64 {
	return float64(in.RegionSumUnclipped(r)) / float64(r.Area())
}

// RegionSumUnclipped returns the sum of squared pixels in r, which must
// lie fully inside the image.
func (sq *IntegralSq) RegionSumUnclipped(r Rect) uint64 {
	stride := sq.W + 1
	x0, y0, x1, y1 := r.X, r.Y, r.X+r.W, r.Y+r.H
	return sq.Sum[y1*stride+x1] - sq.Sum[y0*stride+x1] - sq.Sum[y1*stride+x0] + sq.Sum[y0*stride+x0]
}

// NCC returns the normalised cross-correlation between two equally-sized
// images in [-1, 1]; a flat image correlates as 0 against anything it
// doesn't match exactly — two flat images correlate 1 only when their
// means agree (all-50 vs all-200 is a mismatch, not a perfect match).
// Used for template-based face recognition.
func NCC(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		b = b.Resize(a.W, a.H)
	}
	ma, mb := a.Mean(), b.Mean()
	var num, da, db float64
	for i := range a.Pix {
		x := float64(a.Pix[i]) - ma
		y := float64(b.Pix[i]) - mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 && db == 0 {
		if ma == mb {
			return 1
		}
		return 0
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}
