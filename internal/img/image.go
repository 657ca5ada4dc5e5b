// Package img provides the minimal grayscale image substrate DiEvent
// needs: an 8-bit image type, drawing primitives for the synthetic video
// renderer, histograms and distances for shot-boundary detection, integral
// images and filtering for face detection, and resampling for feature
// extraction. It deliberately avoids the stdlib image interfaces: frames
// are hot-path data and direct []uint8 access matters.
package img

import (
	"errors"
	"fmt"
	"math"
)

// Gray is an 8-bit grayscale image with rows stored contiguously.
type Gray struct {
	W, H int
	// Pix holds W*H bytes, row-major.
	Pix []uint8
}

// ErrBounds is returned for out-of-range crop or resample requests.
var ErrBounds = errors.New("img: region out of bounds")

// New allocates a W×H image initialised to black. It panics on
// non-positive dimensions — image sizes are static configuration, not
// runtime data.
func New(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// FromPix wraps an existing pixel buffer (not copied). len(pix) must be
// w*h.
func FromPix(w, h int, pix []uint8) (*Gray, error) {
	if w <= 0 || h <= 0 || len(pix) != w*h {
		return nil, fmt.Errorf("img: buffer %d does not match %dx%d: %w", len(pix), w, h, ErrBounds)
	}
	return &Gray{W: w, H: h, Pix: pix}, nil
}

// AtClamped returns the pixel at (x,y) with coordinates clamped to the
// image border (replicate padding) — used by LBP and convolution.
func (g *Gray) AtClamped(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x,y); out-of-range writes are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Ensure returns g resized to w×h, reusing its pixel buffer when the
// capacity allows and allocating otherwise. A nil g allocates fresh.
// Pixel contents after Ensure are unspecified — callers overwrite them.
// This is the reuse primitive behind the *Into rendering and resampling
// variants on the pipeline hot path.
func Ensure(g *Gray, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	if g == nil {
		return New(w, h)
	}
	if cap(g.Pix) >= w*h {
		g.Pix = g.Pix[:w*h]
	} else {
		g.Pix = make([]uint8, w*h)
	}
	g.W, g.H = w, h
	return g
}

// Rect is an integer pixel rectangle [X, X+W) × [Y, Y+H).
type Rect struct {
	X, Y, W, H int
}

// Intersect returns the overlap of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x0 := max(r.X, o.X)
	y0 := max(r.Y, o.Y)
	x1 := min(r.X+r.W, o.X+o.W)
	y1 := min(r.Y+r.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Area returns W*H (0 for empty rectangles).
func (r Rect) Area() int {
	if r.W <= 0 || r.H <= 0 {
		return 0
	}
	return r.W * r.H
}

// IoU returns intersection-over-union of two rectangles, the standard
// detection-overlap measure.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	return float64(inter) / float64(union)
}

// Center returns the rectangle centre.
func (r Rect) Center() (float64, float64) {
	return float64(r.X) + float64(r.W)/2, float64(r.Y) + float64(r.H)/2
}

// String renders the rect.
func (r Rect) String() string { return fmt.Sprintf("rect(%d,%d %dx%d)", r.X, r.Y, r.W, r.H) }

// CropInto copies the given region into dst, reusing its buffer when
// possible (nil dst allocates). dst must not alias g. Regions extending
// outside the image return ErrBounds.
func (g *Gray) CropInto(r Rect, dst *Gray) (*Gray, error) {
	if r.X < 0 || r.Y < 0 || r.W <= 0 || r.H <= 0 || r.X+r.W > g.W || r.Y+r.H > g.H {
		return nil, fmt.Errorf("img: crop %v from %dx%d: %w", r, g.W, g.H, ErrBounds)
	}
	out := Ensure(dst, r.W, r.H)
	for y := 0; y < r.H; y++ {
		src := (r.Y+y)*g.W + r.X
		copy(out.Pix[y*r.W:(y+1)*r.W], g.Pix[src:src+r.W])
	}
	return out, nil
}

// CropClamped crops the region, clamping reads at image borders, always
// succeeding for positive dimensions — used by trackers whose boxes may
// extend past the frame.
func (g *Gray) CropClamped(r Rect) *Gray {
	return g.CropClampedInto(r, nil)
}

// CropClampedInto is CropClamped reusing dst's buffer when possible (nil
// dst allocates). dst must not alias g.
func (g *Gray) CropClampedInto(r Rect, dst *Gray) *Gray {
	if r.W <= 0 || r.H <= 0 {
		out := Ensure(dst, 1, 1)
		out.Pix[0] = 0
		return out
	}
	out := Ensure(dst, r.W, r.H)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			out.Pix[y*r.W+x] = g.AtClamped(r.X+x, r.Y+y)
		}
	}
	return out
}

// Resize returns the image resampled to w×h using bilinear interpolation.
func (g *Gray) Resize(w, h int) *Gray {
	return g.ResizeInto(w, h, nil)
}

// ResizeInto is Resize reusing dst's buffer when possible (nil dst
// allocates). dst must not alias g.
func (g *Gray) ResizeInto(w, h int, dst *Gray) *Gray {
	out := Ensure(dst, w, h)
	if w == g.W && h == g.H {
		copy(out.Pix, g.Pix)
		return out
	}
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(math.Floor(fy))
		dy := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(math.Floor(fx))
			dx := fx - float64(x0)
			v00 := float64(g.AtClamped(x0, y0))
			v10 := float64(g.AtClamped(x0+1, y0))
			v01 := float64(g.AtClamped(x0, y0+1))
			v11 := float64(g.AtClamped(x0+1, y0+1))
			v := v00*(1-dx)*(1-dy) + v10*dx*(1-dy) + v01*(1-dx)*dy + v11*dx*dy
			out.Pix[y*w+x] = uint8(math.Round(math.Max(0, math.Min(255, v))))
		}
	}
	return out
}

// Mean returns the average pixel intensity.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var s uint64
	for _, p := range g.Pix {
		s += uint64(p)
	}
	return float64(s) / float64(len(g.Pix))
}

// Variance returns the pixel intensity variance.
func (g *Gray) Variance() float64 {
	m := g.Mean()
	var s float64
	for _, p := range g.Pix {
		d := float64(p) - m
		s += d * d
	}
	return s / float64(len(g.Pix))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
