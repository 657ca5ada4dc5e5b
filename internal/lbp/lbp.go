// Package lbp implements Local Binary Patterns, the feature extractor
// the paper specifies for emotion recognition (§II-C: "we consider the
// Local Binary Patterns as a feature extractor and neural network as a
// classifier"). It provides the basic 3×3 operator, the uniform-pattern
// mapping, and spatial grid histograms — the standard LBP
// face-descriptor recipe.
package lbp

import (
	"errors"
	"fmt"

	"repro/internal/img"
)

// Code3x3 computes the basic LBP code at (x,y): each of the 8 neighbours
// contributes one bit, set when the neighbour is ≥ the centre pixel.
// Neighbours are visited clockwise from the top-left, so codes are
// comparable across pixels and images. Border pixels use clamped reads.
func Code3x3(g *img.Gray, x, y int) uint8 {
	c := g.AtClamped(x, y)
	var code uint8
	// Offsets clockwise from top-left.
	offs := [8][2]int{
		{-1, -1}, {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0},
	}
	for i, o := range offs {
		if g.AtClamped(x+o[0], y+o[1]) >= c {
			code |= 1 << uint(i)
		}
	}
	return code
}

// ErrBadParams reports invalid operator parameters.
var ErrBadParams = errors.New("lbp: bad parameters")

// transitions counts 0↔1 transitions in the circular 8-bit pattern.
func transitions(code uint8) int {
	t := 0
	for i := 0; i < 8; i++ {
		a := (code >> uint(i)) & 1
		b := (code >> uint((i+1)%8)) & 1
		if a != b {
			t++
		}
	}
	return t
}

// NumUniformBins is the length of a uniform-LBP histogram: the 58
// uniform 8-bit patterns plus one shared bin for all non-uniform codes.
const NumUniformBins = 59

// uniformMap maps each of the 256 LBP codes to its uniform-histogram
// bin. Built once at package initialisation.
var uniformMap [256]uint8

func init() {
	next := uint8(0)
	for c := 0; c < 256; c++ {
		if transitions(uint8(c)) <= 2 {
			uniformMap[c] = next
			next++
		} else {
			uniformMap[c] = NumUniformBins - 1
		}
	}
	// Exactly 58 uniform patterns exist; the invariant is checked here
	// rather than trusted.
	if next != NumUniformBins-1 {
		panic(fmt.Sprintf("lbp: %d uniform patterns, want %d", next, NumUniformBins-1))
	}
}

// UniformBin maps an LBP code to its uniform-histogram bin.
func UniformBin(code uint8) int { return int(uniformMap[code]) }

// ImageInto computes the LBP code image of g (same dimensions), reusing
// dst's buffer when possible (nil dst allocates). dst must not alias g.
func ImageInto(g *img.Gray, dst *img.Gray) *img.Gray {
	out := img.Ensure(dst, g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.Pix[y*g.W+x] = Code3x3(g, x, y)
		}
	}
	return out
}

// histogramInto fills h (length NumUniformBins, zeroed here) with the
// normalised histogram of the region.
func histogramInto(h []float64, codes *img.Gray, r img.Rect) {
	for i := range h {
		h[i] = 0
	}
	c := r.Intersect(img.Rect{X: 0, Y: 0, W: codes.W, H: codes.H})
	n := 0
	for y := c.Y; y < c.Y+c.H; y++ {
		for x := c.X; x < c.X+c.W; x++ {
			h[UniformBin(codes.Pix[y*codes.W+x])]++
			n++
		}
	}
	if n > 0 {
		inv := 1 / float64(n)
		for i := range h {
			h[i] *= inv
		}
	}
}

// GridDescriptorInto divides the image into gx×gy cells and concatenates
// the per-cell uniform-LBP histograms — the classic LBP face descriptor.
// The result has gx·gy·NumUniformBins components, each cell
// L1-normalised. Scratch is caller-owned: dst receives the descriptor
// (grown as needed, contents overwritten) and codes holds the
// intermediate LBP code image. Either may be nil; the returned slice
// aliases dst when its capacity sufficed.
func GridDescriptorInto(g *img.Gray, gx, gy int, dst []float64, codes *img.Gray) ([]float64, error) {
	if gx <= 0 || gy <= 0 {
		return nil, fmt.Errorf("lbp: grid %dx%d: %w", gx, gy, ErrBadParams)
	}
	if g.W < gx || g.H < gy {
		return nil, fmt.Errorf("lbp: image %dx%d smaller than grid %dx%d: %w",
			g.W, g.H, gx, gy, ErrBadParams)
	}
	codes = ImageInto(g, codes)
	n := gx * gy * NumUniformBins
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	k := 0
	for cy := 0; cy < gy; cy++ {
		y0 := cy * g.H / gy
		y1 := (cy + 1) * g.H / gy
		for cx := 0; cx < gx; cx++ {
			x0 := cx * g.W / gx
			x1 := (cx + 1) * g.W / gx
			cell := out[k : k+NumUniformBins]
			histogramInto(cell, codes, img.Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0})
			k += NumUniformBins
		}
	}
	return out, nil
}
