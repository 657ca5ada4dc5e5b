package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)
	if got := a.Add(b); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); got != V3(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	a := V3(1, 0, 0)
	b := V3(0, 1, 0)
	if got := a.Cross(b); !got.ApproxEq(V3(0, 0, 1), Epsilon) {
		t.Errorf("x cross y = %v, want z", got)
	}
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Bound inputs: enormous magnitudes only test float overflow,
		// not the algebra.
		a := V3(bound(ax), bound(ay), bound(az))
		b = V3(bound(bx), bound(by), bound(bz))
		c := a.Cross(b)
		tol := 1e-6 * (1 + a.NormSq()) * (1 + b.NormSq())
		return math.Abs(c.Dot(a)) < tol && math.Abs(c.Dot(b)) < tol
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestVec3UnitNorm(t *testing.T) {
	v := V3(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	u := v.Unit()
	if math.Abs(u.Norm()-1) > Epsilon {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if !(Vec3{}).Unit().IsZero() {
		t.Error("zero Unit should stay zero")
	}
}

func TestVec2Basics(t *testing.T) {
	if got := V2(3, 4).Sub(V2(1, 1)); got != V2(2, 3) {
		t.Errorf("Sub = %v", got)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{-180, -15, 0, 45, 90, 360} {
		if got := Rad2Deg(Deg2Rad(d)); math.Abs(got-d) > 1e-9 {
			t.Errorf("round trip %v = %v", d, got)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// quickCfg returns a small deterministic config for property tests.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

// bound maps an arbitrary float (possibly ±Inf/NaN) into [-100, 100] so
// property tests exercise algebra rather than float overflow.
func bound(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 100)
}
