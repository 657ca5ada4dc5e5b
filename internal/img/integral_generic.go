//go:build !amd64 || purego

package img

import "unsafe"

// integralRow writes the first n entries of one row of both summed-area
// tables and returns the row's running sums after them (see the amd64
// declaration): the portable scalar loop, for architectures without a
// hand-tuned kernel and for any architecture under the purego build
// tag. It accepts any n.
func integralRow(p *byte, prevIn, curIn, prevSq, curSq *uint32, n int) (s, q uint32) {
	return integralRowScalar(unsafe.Slice(p, n), unsafe.Slice(prevIn, n), unsafe.Slice(curIn, n),
		unsafe.Slice(prevSq, n), unsafe.Slice(curSq, n), 0, 0)
}
