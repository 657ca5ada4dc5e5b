package geom

import "fmt"

// Transform is a rigid transform (rotation + translation) between two
// reference frames — the paper's iTj operator. For frames Fi and Fj,
// a Transform T = iTj maps coordinates expressed in Fj into Fi:
//
//	iV = iTj · jV            (paper Eq. 1)
//
// Transforms compose by matrix semantics: iTk = iTj.Compose(jTk), exactly
// the chain the paper uses in Eq. 2 (¹Vl = ¹T₂ · ²T₄ · ⁴Vl).
type Transform struct {
	// R is the rotation part (basis of the source frame expressed in the
	// destination frame).
	R Mat3
	// T is the translation part (origin of the source frame expressed in
	// the destination frame).
	T Vec3
}

// IdentityTransform returns the identity rigid transform.
func IdentityTransform() Transform {
	return Transform{R: Identity3()}
}

// TransformFromPose builds the transform worldTlocal for an object whose
// local frame sits at position p with orientation r in the world: it maps
// local coordinates to world coordinates.
func TransformFromPose(p Vec3, r Mat3) Transform { return Transform{R: r, T: p} }

// ApplyPoint maps a point from the source frame into the destination
// frame: x' = R·x + T.
func (tr Transform) ApplyPoint(p Vec3) Vec3 {
	return tr.R.MulVec(p).Add(tr.T)
}

// ApplyDir maps a direction (free vector) — rotation only, no translation.
// This is what the paper's Eq. 2 does to gaze vectors.
func (tr Transform) ApplyDir(d Vec3) Vec3 { return tr.R.MulVec(d) }

// Compose returns the composition tr∘o: first apply o, then tr. If
// tr = iTj and o = jTk then the result is iTk.
func (tr Transform) Compose(o Transform) Transform {
	return Transform{
		R: tr.R.Mul(o.R),
		T: tr.R.MulVec(o.T).Add(tr.T),
	}
}

// Inverse returns the transform mapping the opposite way (jTi from iTj).
// Rigid transforms are always invertible: R⁻¹ = Rᵀ.
func (tr Transform) Inverse() Transform {
	rt := tr.R.Transpose()
	return Transform{R: rt, T: rt.MulVec(tr.T).Neg()}
}

// ApproxEq reports whether both rotation and translation agree within tol.
func (tr Transform) ApproxEq(o Transform, tol float64) bool {
	return tr.R.ApproxEq(o.R, tol) && tr.T.ApproxEq(o.T, tol)
}

// String renders the transform as translation plus ZYX Euler angles in
// degrees, the most readable form for camera/head poses.
func (tr Transform) String() string {
	yaw, pitch, roll := tr.R.ToEulerZYX()
	return fmt.Sprintf("T{t=%v, ypr=(%.1f°, %.1f°, %.1f°)}",
		tr.T, Rad2Deg(yaw), Rad2Deg(pitch), Rad2Deg(roll))
}

// Pose is a named position + orientation in some parent frame. It is the
// unit of head-pose and camera-pose bookkeeping: Pose.Transform() is the
// parentTlocal operator.
type Pose struct {
	// Position of the frame origin in the parent frame.
	Position Vec3
	// Orientation of the frame axes in the parent frame.
	Orientation Mat3
}

// Transform returns the parentTlocal operator for this pose.
func (p Pose) Transform() Transform {
	return TransformFromPose(p.Position, p.Orientation)
}

// Forward returns the local +X axis expressed in the parent frame.
// DiEvent convention: a person or camera "looks along" its local +X.
func (p Pose) Forward() Vec3 { return p.Orientation.Col(0) }

// LookAt returns a pose positioned at eye whose forward (+X) axis points
// at target, with +Z kept as close to world-up (0,0,1) as possible.
func LookAt(eye, target Vec3) Pose {
	fwd := target.Sub(eye).Unit()
	if fwd.IsZero() {
		return Pose{Position: eye, Orientation: Identity3()}
	}
	worldUp := V3(0, 0, 1)
	left := worldUp.Cross(fwd).Unit()
	if left.IsZero() {
		// Looking straight up/down: pick an arbitrary left.
		left = V3(0, 1, 0)
	}
	up := fwd.Cross(left).Unit()
	return Pose{Position: eye, Orientation: Mat3FromCols(fwd, left, up)}
}

// ApproxEq reports approximate pose equality within tol.
func (p Pose) ApproxEq(o Pose, tol float64) bool {
	return p.Position.ApproxEq(o.Position, tol) && p.Orientation.ApproxEq(o.Orientation, tol)
}

// String renders the pose.
func (p Pose) String() string {
	yaw, pitch, roll := p.Orientation.ToEulerZYX()
	return fmt.Sprintf("Pose{p=%v, ypr=(%.1f°, %.1f°, %.1f°)}",
		p.Position, Rad2Deg(yaw), Rad2Deg(pitch), Rad2Deg(roll))
}
