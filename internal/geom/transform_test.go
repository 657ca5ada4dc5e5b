package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randTransform(rng *rand.Rand) Transform {
	return Transform{R: randRotation(rng), T: V3(
		rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)}
}

func TestTransformIdentity(t *testing.T) {
	id := IdentityTransform()
	p := V3(1, 2, 3)
	if !id.ApplyPoint(p).ApproxEq(p, Epsilon) {
		t.Error("identity moved a point")
	}
	if !id.ApplyDir(p).ApproxEq(p, Epsilon) {
		t.Error("identity rotated a direction")
	}
}

func TestTransformInverseProperty(t *testing.T) {
	// iTj.Compose(jTi) == identity — the invariant behind frame-graph
	// bidirectional edges.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		tr := randTransform(rng)
		if !tr.Compose(tr.Inverse()).ApproxEq(IdentityTransform(), 1e-9) {
			t.Fatal("T·T⁻¹ != I")
		}
		if !tr.Inverse().Compose(tr).ApproxEq(IdentityTransform(), 1e-9) {
			t.Fatal("T⁻¹·T != I")
		}
	}
}

func TestTransformComposeMatchesSequentialApply(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		a, b := randTransform(rng), randTransform(rng)
		p := V3(rng.Float64(), rng.Float64(), rng.Float64())
		seq := a.ApplyPoint(b.ApplyPoint(p))
		comp := a.Compose(b).ApplyPoint(p)
		if !seq.ApproxEq(comp, 1e-9) {
			t.Fatal("compose != sequential application")
		}
	}
}

func TestTransformPreservesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		tr := randTransform(rng)
		p, q := V3(rng.Float64(), rng.Float64(), rng.Float64()), V3(rng.Float64()*3, -rng.Float64(), 2)
		d0 := p.Sub(q).Norm()
		d1 := tr.ApplyPoint(p).Sub(tr.ApplyPoint(q)).Norm()
		if math.Abs(d0-d1) > 1e-9 {
			t.Fatal("rigid transform changed a distance")
		}
	}
}

func TestApplyDirIgnoresTranslation(t *testing.T) {
	tr := Transform{R: Identity3(), T: V3(100, 200, 300)}
	d := V3(1, 0, 0)
	if !tr.ApplyDir(d).ApproxEq(d, Epsilon) {
		t.Error("direction should not be translated")
	}
	if !tr.ApplyPoint(d).ApproxEq(V3(101, 200, 300), Epsilon) {
		t.Error("point should be translated")
	}
}

func TestPaperEquation2Chain(t *testing.T) {
	// Reproduce the exact chain of paper Eq. 2: ¹Vl = ¹T₂ · ²T₄ · ⁴Vl.
	// F1 = camera 1 (reference), F2 = camera 2, F4 = P2's head w.r.t. F2.
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		t12 := randTransform(rng) // ¹T₂
		t24 := randTransform(rng) // ²T₄
		v4 := V3(rng.Float64(), rng.Float64(), rng.Float64()).Unit()

		// Chain via Compose.
		v1 := t12.Compose(t24).ApplyDir(v4)
		// Step-by-step (the paper's reading).
		v2 := t24.ApplyDir(v4)
		v1b := t12.ApplyDir(v2)
		if !v1.ApproxEq(v1b, 1e-9) {
			t.Fatal("Eq. 2 chain mismatch")
		}
	}
}

func TestPoseForwardLeftUpOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		p := Pose{Position: V3(0, 0, 0), Orientation: randRotation(rng)}
		f, l, u := p.Forward(), p.Orientation.Col(1), p.Orientation.Col(2)
		if math.Abs(f.Dot(l)) > 1e-9 || math.Abs(f.Dot(u)) > 1e-9 || math.Abs(l.Dot(u)) > 1e-9 {
			t.Fatal("pose axes not orthogonal")
		}
		if !f.Cross(l).ApproxEq(u, 1e-9) {
			t.Fatal("pose axes not right-handed")
		}
	}
}

func TestLookAt(t *testing.T) {
	eye := V3(0, 0, 2.5)
	target := V3(3, 0, 1.2)
	p := LookAt(eye, target)
	want := target.Sub(eye).Unit()
	if !p.Forward().ApproxEq(want, 1e-9) {
		t.Errorf("forward = %v, want %v", p.Forward(), want)
	}
	if !isRotation(p.Orientation, 1e-9) {
		t.Error("LookAt orientation not a rotation")
	}
	// Up should have non-negative world-Z (head kept upright).
	if up := p.Orientation.Col(2); up.Z < 0 {
		t.Errorf("up = %v points downwards", up)
	}
	// Degenerate: looking at self.
	self := LookAt(eye, eye)
	if !self.Orientation.ApproxEq(Identity3(), Epsilon) {
		t.Error("LookAt(self) should be identity orientation")
	}
	// Straight down — must still return a valid rotation.
	down := LookAt(V3(0, 0, 2), V3(0, 0, 0))
	if !isRotation(down.Orientation, 1e-9) {
		t.Error("LookAt straight down should be a rotation")
	}
}

func TestPoseTransformRoundTrip(t *testing.T) {
	p := LookAt(V3(1, 2, 3), V3(4, 5, 6))
	tr := p.Transform()
	// Local origin maps to the pose position.
	if !tr.ApplyPoint(Vec3{}).ApproxEq(p.Position, 1e-12) {
		t.Error("local origin should map to pose position")
	}
	// Local +X maps to Forward.
	if !tr.ApplyDir(V3(1, 0, 0)).ApproxEq(p.Forward(), 1e-12) {
		t.Error("local +X should map to Forward")
	}
}
