// Package geom provides the 3-D geometry substrate for DiEvent: vectors,
// rotation matrices, rigid transforms between reference frames (the
// paper's iTj operators, Eq. 1–2), and the ray–sphere intersection test
// used for eye-contact detection (Eq. 3–5).
//
// Conventions: right-handed coordinate system, column vectors, transforms
// compose left to right onto vectors (v' = T * v). Angles are radians
// unless a function name says degrees.
package geom

import (
	"fmt"
	"math"
)

// Epsilon is the default tolerance for approximate float comparisons
// throughout the geometry package.
const Epsilon = 1e-9

// Vec3 is a 3-D vector or point.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns −v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length ‖v‖.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns ‖v‖².
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Unit returns v normalised to unit length. The zero vector is returned
// unchanged (callers that need to distinguish should test IsZero first).
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n < Epsilon {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// IsZero reports whether every component of v is within Epsilon of zero.
func (v Vec3) IsZero() bool {
	return math.Abs(v.X) < Epsilon && math.Abs(v.Y) < Epsilon && math.Abs(v.Z) < Epsilon
}

// ApproxEq reports whether v and w agree component-wise within tol.
func (v Vec3) ApproxEq(w Vec3, tol float64) bool {
	return math.Abs(v.X-w.X) <= tol && math.Abs(v.Y-w.Y) <= tol && math.Abs(v.Z-w.Z) <= tol
}

// String renders v as "(x, y, z)" with three decimals.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Vec2 is a 2-D vector, used for image-plane coordinates and top-view maps.
type Vec2 struct {
	X, Y float64
}

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Sub returns v − w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// ApproxEq reports whether v and w agree component-wise within tol.
func (v Vec2) ApproxEq(w Vec2, tol float64) bool {
	return math.Abs(v.X-w.X) <= tol && math.Abs(v.Y-w.Y) <= tol
}

// String renders v as "(x, y)" with three decimals.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
