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
// and the constructors reject images whose total intensity could
// overflow. Together with IntegralSq the tables take 8 bytes per pixel.
type Integral struct {
	W, H int
	Sum  []uint32 // (W+1)*(H+1)
}

// maxIntegralPixels bounds W*H so that W*H*255 fits in uint32.
const maxIntegralPixels = (1<<32 - 1) / 255

// MaxExactRegionPixels is the most pixels whose sum of 8-bit products
// stays below 2³² however bright they are (255² per pixel): 66 051,
// about 257×257. It bounds the regions IntegralSq.RegionSumUnclipped
// answers exactly and the templates TemplateMatcher accepts, whose
// 32-bit window dot product obeys the same bound.
const MaxExactRegionPixels = (1<<32 - 1) / (255 * 255)

// integralStep is the pixel count integralRow advances per step:
// BuildIntegrals hands it each row's longest multiple of integralStep
// and finishes the rest itself.
const integralStep = 4

// NewIntegral builds the summed-area table of g with a scalar loop —
// the plain half of BuildIntegrals, kept as its reference. It panics
// for images larger than 16.8M pixels, whose sums could overflow the
// uint32 table.
func NewIntegral(g *Gray) *Integral {
	w, h := g.W, g.H
	if w*h > maxIntegralPixels {
		panic(fmt.Sprintf("img: %dx%d image too large for integral table", w, h))
	}
	in := &Integral{W: w, H: h, Sum: make([]uint32, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		var rowSum uint32
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
//
// Sum holds the true prefix sums modulo 2³², so it wraps once a
// frame's Σp² passes 2³² (on 640×480, a root-mean-square intensity of
// 119). Region sums stay exact all the same for every region of at
// most MaxExactRegionPixels pixels: the
// four-corner combination is exact modulo 2³², and the true Σp² of
// such a region is below 2³² — the argument the plain table and the
// matcher's dot kernel rely on too.
type IntegralSq struct {
	W, H int
	Sum  []uint32 // (W+1)*(H+1), modulo 2³²
}

// BuildIntegrals builds the plain and squared summed-area tables of g
// in one pass over the pixels, reusing in and sq (and their buffers)
// when non-nil. This is the per-frame entry point of the detection hot
// path: the extraction engine builds both tables once per
// (camera, frame) and shares them across the detector's pre-filters
// and the fused matching kernel.
//
// A scalar build's cost is instructions, not memory traffic: the loop
// spends 13 instructions per pixel on two serial add chains and two
// stores, and narrowing the squared table to 32 bits did not by itself
// speed it up much (DESIGN.md §12). So each row's longest multiple of
// integralStep goes through one integralRow call (SSE2 prefix sums,
// four pixels per step on amd64) and only the few pixels left take
// integralRowScalar.
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
	sq.Sum = ensureU32(sq.Sum, n)
	stride := w + 1
	clear(in.Sum[:stride])
	clear(sq.Sum[:stride])
	k := w - w%integralStep
	for y := 0; y < h; y++ {
		row := g.Pix[y*w : (y+1)*w]
		// Shifted equal-length views: entry x of a row is the table's
		// column x+1.
		prevIn := in.Sum[y*stride+1 : (y+1)*stride][:len(row)]
		curIn := in.Sum[(y+1)*stride+1 : (y+2)*stride][:len(row)]
		prevSq := sq.Sum[y*stride+1 : (y+1)*stride][:len(row)]
		curSq := sq.Sum[(y+1)*stride+1 : (y+2)*stride][:len(row)]
		in.Sum[(y+1)*stride], sq.Sum[(y+1)*stride] = 0, 0
		var s, q uint32
		if k > 0 {
			s, q = integralRow(&row[0], &prevIn[0], &curIn[0], &prevSq[0], &curSq[0], k)
		}
		integralRowScalar(row[k:], prevIn[k:], curIn[k:], prevSq[k:], curSq[k:], s, q)
	}
	return in, sq
}

// integralRowScalar continues one row of both tables from the running
// sums s and q over the pixels in row, with the other four slices at
// least as long, and returns the row's sums after them: the portable
// integralRow and BuildIntegrals's tail.
func integralRowScalar(row []byte, prevIn, curIn, prevSq, curSq []uint32, s, q uint32) (uint32, uint32) {
	prevIn, curIn = prevIn[:len(row)], curIn[:len(row)]
	prevSq, curSq = prevSq[:len(row)], curSq[:len(row)]
	for x, v := range row {
		s += uint32(v)
		q += uint32(v) * uint32(v)
		curIn[x] = prevIn[x] + s
		curSq[x] = prevSq[x] + q
	}
	return s, q
}

// ensureU32 returns s resized to n, reusing capacity when possible.
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
// lie fully inside the image. It is exact only for regions of at most
// MaxExactRegionPixels pixels (see IntegralSq): the corners combine
// modulo 2³², and a larger bright region reads its sum modulo 2³²
// without any error. The detector refuses scales that could query one.
func (sq *IntegralSq) RegionSumUnclipped(r Rect) uint64 {
	stride := sq.W + 1
	x0, y0, x1, y1 := r.X, r.Y, r.X+r.W, r.Y+r.H
	return uint64(sq.Sum[y1*stride+x1] - sq.Sum[y0*stride+x1] - sq.Sum[y1*stride+x0] + sq.Sum[y0*stride+x0])
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
