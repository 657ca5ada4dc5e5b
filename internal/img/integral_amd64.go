//go:build amd64 && !purego

package img

// integralRow writes the first n entries of one row of both summed-area
// tables, curIn[x] = prevIn[x] + Σ p[0..x] and curSq[x] = prevSq[x] +
// Σ p[0..x]², and returns the row's running sums s and q after those n
// pixels; n must be a multiple of integralStep. The amd64
// implementation (integral_amd64.s) runs four pixels per step in SSE2
// lanes; all arithmetic wraps modulo 2³² like the tables themselves,
// so it matches the portable loop (integral_generic.go) bit for bit.
//
//go:noescape
func integralRow(p *byte, prevIn, curIn, prevSq, curSq *uint32, n int) (s, q uint32)
