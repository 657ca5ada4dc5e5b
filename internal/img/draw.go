package img

import "math"

// Drawing primitives for the synthetic frame renderer. All primitives
// clip to image bounds and write opaque intensity values.

// FillCircle fills the disc of radius rad centred at (cx, cy).
func (g *Gray) FillCircle(cx, cy, rad float64, v uint8) {
	if rad <= 0 {
		return
	}
	x0 := int(math.Floor(cx - rad))
	x1 := int(math.Ceil(cx + rad))
	y0 := int(math.Floor(cy - rad))
	y1 := int(math.Ceil(cy + rad))
	r2 := rad * rad
	for y := max(0, y0); y <= min(g.H-1, y1); y++ {
		dy := float64(y) + 0.5 - cy
		for x := max(0, x0); x <= min(g.W-1, x1); x++ {
			dx := float64(x) + 0.5 - cx
			if dx*dx+dy*dy <= r2 {
				g.Pix[y*g.W+x] = v
			}
		}
	}
}

// FillEllipse fills the axis-aligned ellipse with semi-axes (rx, ry)
// centred at (cx, cy), rotated by angle theta (radians, CCW).
func (g *Gray) FillEllipse(cx, cy, rx, ry, theta float64, v uint8) {
	if rx <= 0 || ry <= 0 {
		return
	}
	ext := math.Max(rx, ry)
	x0, x1 := int(cx-ext)-1, int(cx+ext)+1
	y0, y1 := int(cy-ext)-1, int(cy+ext)+1
	c, s := math.Cos(theta), math.Sin(theta)
	for y := max(0, y0); y <= min(g.H-1, y1); y++ {
		py := float64(y) + 0.5 - cy
		for x := max(0, x0); x <= min(g.W-1, x1); x++ {
			px := float64(x) + 0.5 - cx
			// Rotate the point into the ellipse frame.
			ex := (px*c + py*s) / rx
			ey := (-px*s + py*c) / ry
			if ex*ex+ey*ey <= 1 {
				g.Pix[y*g.W+x] = v
			}
		}
	}
}

// DrawLine draws a 1-pixel line from (x0,y0) to (x1,y1) using Bresenham's
// algorithm.
func (g *Gray) DrawLine(x0, y0, x1, y1 int, v uint8) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		g.Set(x0, y0, v)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// AddNoise perturbs every pixel by a value drawn from src via nextGauss
// scaled by sigma, clamping to [0,255]. The caller supplies the Gaussian
// source so noise stays deterministic per stream.
func (g *Gray) AddNoise(sigma float64, nextGauss func() float64) {
	if sigma <= 0 {
		return
	}
	for i, p := range g.Pix {
		v := float64(p) + nextGauss()*sigma
		g.Pix[i] = uint8(math.Max(0, math.Min(255, math.Round(v))))
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
