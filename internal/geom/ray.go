package geom

import "math"

// Ray is a half-line x = Origin + d·Dir for d ≥ 0 (paper Eq. 4). Dir need
// not be unit length; intersection distances are reported in units of
// ‖Dir‖.
type Ray struct {
	Origin Vec3
	Dir    Vec3
}

// NewRay constructs a ray.
func NewRay(origin, dir Vec3) Ray { return Ray{Origin: origin, Dir: dir} }

// Sphere is the head model of paper Eq. 3: ‖x − C‖² = R².
type Sphere struct {
	C Vec3    // center (head position)
	R float64 // radius (head radius, metres)
}

// NewSphere constructs a sphere.
func NewSphere(c Vec3, r float64) Sphere { return Sphere{C: c, R: r} }

// SphereHit is the result of a ray–sphere intersection test.
type SphereHit struct {
	// Hit is true when the ray's supporting line crosses the sphere with
	// positive discriminant (the paper's w ∈ ℝ⁺ condition) and at least
	// one intersection lies on the forward half of the ray.
	Hit bool
	// D1, D2 are the two intersection parameters along the ray (D1 ≤ D2),
	// valid only when the discriminant is non-negative.
	D1, D2 float64
	// W is the discriminant of paper Eq. 5; Hit requires W > 0.
	W float64
}

// IntersectSphere solves paper Eq. 5: substitute the line equation (Eq. 4)
// into the sphere equation (Eq. 3) and solve the quadratic for d:
//
//	d = (−(V·(O−C)) ± √w) / ‖V‖²
//	w = (V·(O−C))² − ‖V‖²·(‖O−C‖² − r²)
//
// where O is the ray origin, V the ray direction, C the sphere centre and
// r its radius. The paper declares a hit when w ∈ ℝ⁺ (two crossing
// points); tangency (w = 0) and misses (w < 0) are not eye contact. We
// additionally require the intersection to lie forward along the gaze ray
// (d ≥ 0) — a person does not look backwards out of their skull.
func (r Ray) IntersectSphere(s Sphere) SphereHit {
	oc := r.Origin.Sub(s.C)
	v2 := r.Dir.NormSq()
	if v2 < Epsilon*Epsilon {
		return SphereHit{W: -1}
	}
	b := r.Dir.Dot(oc)
	w := b*b - v2*(oc.NormSq()-s.R*s.R)
	if w <= 0 {
		return SphereHit{W: w}
	}
	sq := math.Sqrt(w)
	d1 := (-b - sq) / v2
	d2 := (-b + sq) / v2
	hit := d2 >= 0 // at least the far intersection is in front
	return SphereHit{Hit: hit, D1: d1, D2: d2, W: w}
}
