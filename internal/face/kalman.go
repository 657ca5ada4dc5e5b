package face

// Kalman filter with a constant-velocity motion model for face centres:
// state x = (cx, cy, vx, vy), measurement z = (cx, cy). Hand-rolled for
// the fixed 4/2 dimensions — no general matrix library needed.

// kalman tracks one face centre.
type kalman struct {
	// x is the state estimate.
	x [4]float64
	// p is the state covariance (4×4).
	p [4][4]float64
	// q is process noise intensity, r measurement noise variance.
	q, r float64
}

// newKalman initialises a filter at the measured position with zero
// velocity and generous velocity uncertainty.
func newKalman(cx, cy, processNoise, measNoise float64) *kalman {
	k := &kalman{q: processNoise, r: measNoise}
	k.x = [4]float64{cx, cy, 0, 0}
	for i := 0; i < 4; i++ {
		k.p[i][i] = 10
	}
	k.p[2][2], k.p[3][3] = 100, 100 // unknown initial velocity
	return k
}

// predict advances the state one frame (dt = 1 frame).
func (k *kalman) predict() {
	// x' = F x with F = [[1,0,1,0],[0,1,0,1],[0,0,1,0],[0,0,0,1]].
	k.x[0] += k.x[2]
	k.x[1] += k.x[3]

	// P' = F P Fᵀ + Q. Compute FP first.
	var fp [4][4]float64
	for j := 0; j < 4; j++ {
		fp[0][j] = k.p[0][j] + k.p[2][j]
		fp[1][j] = k.p[1][j] + k.p[3][j]
		fp[2][j] = k.p[2][j]
		fp[3][j] = k.p[3][j]
	}
	var pp [4][4]float64
	for i := 0; i < 4; i++ {
		pp[i][0] = fp[i][0] + fp[i][2]
		pp[i][1] = fp[i][1] + fp[i][3]
		pp[i][2] = fp[i][2]
		pp[i][3] = fp[i][3]
	}
	// Q: white-acceleration model, diagonal approximation.
	pp[0][0] += k.q * 0.25
	pp[1][1] += k.q * 0.25
	pp[2][2] += k.q
	pp[3][3] += k.q
	k.p = pp
}

// update fuses a position measurement.
func (k *kalman) update(zx, zy float64) {
	// Innovation.
	yx := zx - k.x[0]
	yy := zy - k.x[1]
	// S = H P Hᵀ + R is the top-left 2×2 of P plus R on the diagonal.
	s00 := k.p[0][0] + k.r
	s11 := k.p[1][1] + k.r
	s01 := k.p[0][1]
	det := s00*s11 - s01*s01
	if det <= 1e-12 {
		return // degenerate covariance; skip the update
	}
	i00, i01, i11 := s11/det, -s01/det, s00/det
	// K = P Hᵀ S⁻¹ : columns 0,1 of P times S⁻¹.
	var kGain [4][2]float64
	for i := 0; i < 4; i++ {
		kGain[i][0] = k.p[i][0]*i00 + k.p[i][1]*i01
		kGain[i][1] = k.p[i][0]*i01 + k.p[i][1]*i11
	}
	for i := 0; i < 4; i++ {
		k.x[i] += kGain[i][0]*yx + kGain[i][1]*yy
	}
	// P = (I − K H) P : subtract K times the top two rows of P.
	var np [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			np[i][j] = k.p[i][j] - kGain[i][0]*k.p[0][j] - kGain[i][1]*k.p[1][j]
		}
	}
	k.p = np
}

// pos returns the estimated centre.
func (k *kalman) pos() (float64, float64) { return k.x[0], k.x[1] }
