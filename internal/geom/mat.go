package geom

import (
	"fmt"
	"math"
)

// Mat3 is a 3×3 matrix in row-major order, used for rotations and general
// linear maps on Vec3.
type Mat3 struct {
	M [3][3]float64
}

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{M: [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}
}

// Mat3FromCols builds a matrix from column vectors.
func Mat3FromCols(c0, c1, c2 Vec3) Mat3 {
	return Mat3{M: [3][3]float64{
		{c0.X, c1.X, c2.X},
		{c0.Y, c1.Y, c2.Y},
		{c0.Z, c1.Z, c2.Z},
	}}
}

// Col returns column j as a Vec3.
func (m Mat3) Col(j int) Vec3 { return Vec3{m.M[0][j], m.M[1][j], m.M[2][j]} }

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m.M[i][k] * n.M[k][j]
			}
			out.M[i][j] = s
		}
	}
	return out
}

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		X: m.M[0][0]*v.X + m.M[0][1]*v.Y + m.M[0][2]*v.Z,
		Y: m.M[1][0]*v.X + m.M[1][1]*v.Y + m.M[1][2]*v.Z,
		Z: m.M[2][0]*v.X + m.M[2][1]*v.Y + m.M[2][2]*v.Z,
	}
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out.M[i][j] = m.M[j][i]
		}
	}
	return out
}

// ApproxEq reports element-wise agreement within tol.
func (m Mat3) ApproxEq(n Mat3, tol float64) bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(m.M[i][j]-n.M[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix over three lines.
func (m Mat3) String() string {
	return fmt.Sprintf("[%7.3f %7.3f %7.3f]\n[%7.3f %7.3f %7.3f]\n[%7.3f %7.3f %7.3f]",
		m.M[0][0], m.M[0][1], m.M[0][2],
		m.M[1][0], m.M[1][1], m.M[1][2],
		m.M[2][0], m.M[2][1], m.M[2][2])
}

// RotX returns the rotation by angle a (radians) about the X axis.
func RotX(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{M: [3][3]float64{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}}
}

// RotY returns the rotation by angle a about the Y axis.
func RotY(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{M: [3][3]float64{
		{c, 0, s},
		{0, 1, 0},
		{-s, 0, c},
	}}
}

// RotZ returns the rotation by angle a about the Z axis.
func RotZ(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{M: [3][3]float64{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}}
}

// EulerZYX builds a rotation from yaw (about Z), pitch (about Y), and roll
// (about X), applied in Z·Y·X order — the convention used for camera and
// head poses throughout DiEvent.
func EulerZYX(yaw, pitch, roll float64) Mat3 {
	return RotZ(yaw).Mul(RotY(pitch)).Mul(RotX(roll))
}

// ToEulerZYX decomposes a rotation into (yaw, pitch, roll) matching
// EulerZYX. At gimbal lock (|pitch| = π/2) roll is fixed to 0.
func (m Mat3) ToEulerZYX() (yaw, pitch, roll float64) {
	// m = Rz(yaw)·Ry(pitch)·Rx(roll)
	sp := -m.M[2][0]
	sp = Clamp(sp, -1, 1)
	pitch = math.Asin(sp)
	if math.Abs(sp) > 1-1e-12 {
		// Gimbal lock: only yaw±roll observable; fix roll = 0.
		yaw = math.Atan2(-m.M[0][1], m.M[1][1])
		roll = 0
		return yaw, pitch, roll
	}
	yaw = math.Atan2(m.M[1][0], m.M[0][0])
	roll = math.Atan2(m.M[2][1], m.M[2][2])
	return yaw, pitch, roll
}
