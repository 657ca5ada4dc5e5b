package img

// Pyramid holds the block-sum pyramid of one frame: per-block pixel
// sums at 2×2 and 4×4 granularity, row-major. No product path builds
// one; it is kept for the benchmark's img.pyramid_us probe.
//
// Edge blocks clipped by the frame boundary hold the sum of the pixels
// actually present.
type Pyramid struct {
	// W, H are the source frame dimensions.
	W, H int
	// W2, H2 are the 2×2 block-grid dimensions: ⌈W/2⌉ × ⌈H/2⌉.
	W2, H2 int
	// S2 holds each 2×2 block's pixel sum (≤ 1020), row-major W2×H2.
	S2 []uint16
	// W4, H4 are the 4×4 block-grid dimensions: ⌈W/4⌉ × ⌈H/4⌉.
	W4, H4 int
	// S4 holds each 4×4 block's pixel sum (≤ 4080), row-major W4×H4.
	S4 []uint16
}

// BuildPyramid fills p (allocating when nil) with the block sums of g,
// reusing p's buffers when their capacity allows. in must be the
// summed-area table of g: block sums fall out of row differences of
// the table — two contiguous streams per block row — which is cheaper
// than re-reading the pixels.
func BuildPyramid(g *Gray, in *Integral, p *Pyramid) *Pyramid {
	if p == nil {
		p = &Pyramid{}
	}
	w, h := g.W, g.H
	p.W, p.H = w, h
	p.W2, p.H2 = (w+1)/2, (h+1)/2
	p.S2 = ensureU16(p.S2, p.W2*p.H2)
	stride := w + 1
	for by := 0; by < p.H2; by++ {
		y1 := 2*by + 2
		if y1 > h {
			y1 = h
		}
		// D[x] = in[y1][x] − in[y0][x] prefix-sums the two pixel rows of
		// this block row along x; each block sum is a D difference.
		r0 := in.Sum[2*by*stride : 2*by*stride+stride]
		r1 := in.Sum[y1*stride : y1*stride+stride]
		out := p.S2[by*p.W2 : (by+1)*p.W2]
		var prev uint32
		full := w / 2 // trailing odd column handled after the loop
		for bx := 0; bx < full; bx++ {
			i := 2*bx + 2
			d := r1[i] - r0[i]
			out[bx] = uint16(d - prev)
			prev = d
		}
		if full < len(out) {
			out[full] = uint16(r1[w] - r0[w] - prev)
		}
	}
	// The 4×4 level folds 2×2 of the level below — identical sums, no
	// second pixel pass.
	p.W4, p.H4 = (w+3)/4, (h+3)/4
	p.S4 = ensureU16(p.S4, p.W4*p.H4)
	foldLevel(p.S4, p.W4, p.H4, p.S2, p.W2, p.H2)
	return p
}

// foldLevel fills dst (dw×dh) with 2×2 sums of src (sw×sh), clipping
// at the right/bottom edges.
func foldLevel(dst []uint16, dw, dh int, src []uint16, sw, sh int) {
	for by := 0; by < dh; by++ {
		r0 := src[2*by*sw : (2*by+1)*sw]
		var r1 []uint16
		if 2*by+1 < sh {
			r1 = src[(2*by+1)*sw : (2*by+2)*sw]
		}
		out := dst[by*dw : (by+1)*dw]
		full := sw / 2 // trailing odd column handled after the loop
		if r1 != nil {
			for bx := 0; bx < full; bx++ {
				out[bx] = r0[2*bx] + r0[2*bx+1] + r1[2*bx] + r1[2*bx+1]
			}
			if full < len(out) {
				out[full] = r0[sw-1] + r1[sw-1]
			}
		} else {
			for bx := 0; bx < full; bx++ {
				out[bx] = r0[2*bx] + r0[2*bx+1]
			}
			if full < len(out) {
				out[full] = r0[sw-1]
			}
		}
	}
}

// ensureU16 is ensureU32 for uint16 buffers.
func ensureU16(s []uint16, n int) []uint16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint16, n)
}
