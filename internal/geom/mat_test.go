package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randRotation(rng *rand.Rand) Mat3 {
	return EulerZYX(
		rng.Float64()*2*math.Pi-math.Pi,
		rng.Float64()*math.Pi-math.Pi/2,
		rng.Float64()*2*math.Pi-math.Pi,
	)
}

// isRotation reports whether m is orthonormal with determinant +1.
func isRotation(m Mat3, tol float64) bool {
	det := m.Col(0).Cross(m.Col(1)).Dot(m.Col(2))
	return math.Abs(det-1) <= tol && m.Transpose().Mul(m).ApproxEq(Identity3(), tol)
}

func TestIdentity3(t *testing.T) {
	id := Identity3()
	v := V3(1, 2, 3)
	if !id.MulVec(v).ApproxEq(v, Epsilon) {
		t.Error("identity should not move vectors")
	}
}

func TestMat3MulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a, b, c := randRotation(rng), randRotation(rng), randRotation(rng)
		l := a.Mul(b).Mul(c)
		r := a.Mul(b.Mul(c))
		if !l.ApproxEq(r, 1e-9) {
			t.Fatalf("not associative at iter %d", i)
		}
	}
}

func TestRotationProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		r := randRotation(rng)
		if !isRotation(r, 1e-9) {
			t.Fatalf("EulerZYX produced a non-rotation: %v", r)
		}
	}
}

func TestRotXYZ(t *testing.T) {
	// RotZ(90°) maps +X to +Y.
	if got := RotZ(math.Pi / 2).MulVec(V3(1, 0, 0)); !got.ApproxEq(V3(0, 1, 0), 1e-12) {
		t.Errorf("RotZ(90°)·x = %v", got)
	}
	// RotX(90°) maps +Y to +Z.
	if got := RotX(math.Pi / 2).MulVec(V3(0, 1, 0)); !got.ApproxEq(V3(0, 0, 1), 1e-12) {
		t.Errorf("RotX(90°)·y = %v", got)
	}
	// RotY(90°) maps +Z to +X.
	if got := RotY(math.Pi / 2).MulVec(V3(0, 0, 1)); !got.ApproxEq(V3(1, 0, 0), 1e-12) {
		t.Errorf("RotY(90°)·z = %v", got)
	}
}

func TestEulerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		yaw := rng.Float64()*2*math.Pi - math.Pi
		pitch := rng.Float64()*math.Pi*0.98 - math.Pi/2*0.98 // avoid gimbal lock
		roll := rng.Float64()*2*math.Pi - math.Pi
		m := EulerZYX(yaw, pitch, roll)
		y2, p2, r2 := m.ToEulerZYX()
		m2 := EulerZYX(y2, p2, r2)
		if !m.ApproxEq(m2, 1e-9) {
			t.Fatalf("euler round trip failed: (%v,%v,%v) -> (%v,%v,%v)", yaw, pitch, roll, y2, p2, r2)
		}
	}
}

func TestEulerGimbalLock(t *testing.T) {
	m := EulerZYX(0.7, math.Pi/2, 0.3)
	y, p, r := m.ToEulerZYX()
	m2 := EulerZYX(y, p, r)
	if !m.ApproxEq(m2, 1e-6) {
		t.Errorf("gimbal-lock decomposition should still reproduce the rotation")
	}
}

func TestMat3RowsCols(t *testing.T) {
	m := Mat3{M: [3][3]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}
	if m.Col(2) != V3(3, 6, 9) {
		t.Errorf("Col(2) = %v", m.Col(2))
	}
	if got := Mat3FromCols(m.Col(0), m.Col(1), m.Col(2)); !got.ApproxEq(m, 0) {
		t.Error("Mat3FromCols should rebuild the matrix")
	}
}
