package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntersectSphereHeadOn(t *testing.T) {
	// Ray from origin along +X at a unit sphere centred 5 away: hits at 4 and 6.
	r := NewRay(Vec3{}, V3(1, 0, 0))
	hit := r.IntersectSphere(NewSphere(V3(5, 0, 0), 1))
	if !hit.Hit {
		t.Fatal("expected hit")
	}
	if math.Abs(hit.D1-4) > 1e-9 || math.Abs(hit.D2-6) > 1e-9 {
		t.Errorf("d1,d2 = %v,%v want 4,6", hit.D1, hit.D2)
	}
	if hit.W <= 0 {
		t.Errorf("w = %v, want positive (paper condition)", hit.W)
	}
}

func TestIntersectSphereMiss(t *testing.T) {
	r := NewRay(Vec3{}, V3(1, 0, 0))
	hit := r.IntersectSphere(NewSphere(V3(5, 3, 0), 1))
	if hit.Hit {
		t.Fatal("should miss")
	}
	if hit.W >= 0 {
		t.Errorf("w = %v, want negative on a miss", hit.W)
	}
}

func TestIntersectSphereTangent(t *testing.T) {
	// Tangent: w == 0 exactly — the paper counts this as NOT looking
	// (requires w ∈ ℝ⁺, i.e. two crossing points).
	r := NewRay(Vec3{}, V3(1, 0, 0))
	hit := r.IntersectSphere(NewSphere(V3(5, 1, 0), 1))
	if hit.Hit {
		t.Error("tangent should not count as a hit")
	}
	if math.Abs(hit.W) > 1e-9 {
		t.Errorf("w = %v, want 0 at tangency", hit.W)
	}
}

func TestIntersectSphereBehind(t *testing.T) {
	// Sphere entirely behind the ray origin: geometric line crosses, but
	// the forward ray does not.
	r := NewRay(Vec3{}, V3(1, 0, 0))
	hit := r.IntersectSphere(NewSphere(V3(-5, 0, 0), 1))
	if hit.Hit {
		t.Error("sphere behind the gaze should not be eye contact")
	}
}

func TestIntersectSphereOriginInside(t *testing.T) {
	// Origin inside the sphere: one forward intersection — counts as a hit.
	r := NewRay(Vec3{}, V3(1, 0, 0))
	hit := r.IntersectSphere(NewSphere(V3(0.1, 0, 0), 1))
	if !hit.Hit {
		t.Error("ray from inside should hit")
	}
	if hit.D1 > 0 {
		t.Errorf("d1 = %v, want negative (entry behind)", hit.D1)
	}
}

func TestIntersectSphereZeroDir(t *testing.T) {
	r := NewRay(Vec3{}, Vec3{})
	if r.IntersectSphere(NewSphere(V3(1, 0, 0), 5)).Hit {
		t.Error("zero-direction ray cannot hit")
	}
}

func TestIntersectSphereScaleInvariance(t *testing.T) {
	// Hit/miss must not depend on the direction's magnitude (paper Eq. 5
	// normalises by ‖V‖²).
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		o := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		d := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		c := V3(rng.NormFloat64()*3, rng.NormFloat64()*3, rng.NormFloat64()*3)
		s := NewSphere(c, 0.5+rng.Float64())
		h1 := NewRay(o, d).IntersectSphere(s)
		h2 := NewRay(o, d.Scale(7.3)).IntersectSphere(s)
		if h1.Hit != h2.Hit {
			t.Fatalf("hit depends on direction scale at iter %d", i)
		}
		if h1.Hit && math.Abs(h1.D1*1-(h2.D1*7.3)) > 1e-6 {
			t.Fatalf("distances should scale inversely with ‖V‖")
		}
	}
}

func TestIntersectSphereInvariantUnderRigidTransform(t *testing.T) {
	// The eye-contact predicate is frame-independent: transforming the
	// ray and sphere by the same rigid transform must not change the
	// outcome. This is the correctness basis for Eq. 2.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		o := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		d := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		c := V3(rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2)
		sph := NewSphere(c, 0.3+rng.Float64())
		tr := randTransform(rng)
		h1 := NewRay(o, d).IntersectSphere(sph)
		h2 := NewRay(tr.ApplyPoint(o), tr.ApplyDir(d)).
			IntersectSphere(NewSphere(tr.ApplyPoint(c), sph.R))
		if h1.Hit != h2.Hit {
			t.Fatalf("eye-contact predicate not rigid-invariant at iter %d", i)
		}
	}
}

func TestHitSymmetryProperty(t *testing.T) {
	// Property: if a ray from A towards B's centre is tested against the
	// sphere at B, it always hits (for any radius > 0 and A outside B).
	f := func(ax, ay, az, bx, by, bz float64, r8 uint8) bool {
		a := V3(bound(ax), bound(ay), bound(az))
		b := V3(bound(bx), bound(by), bound(bz))
		r := 0.05 + float64(r8%100)/200.0
		if a.Sub(b).Norm() <= r+1e-6 {
			return true // skip degenerate: origin inside target sphere
		}
		ray := NewRay(a, b.Sub(a))
		return ray.IntersectSphere(NewSphere(b, r)).Hit
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
