package img

import "unsafe"

// dotRowGeneric is the portable scalar Σ t[i]·f[i] kernel over one row.
// It is exact integer arithmetic, so every implementation of dotWindow
// must match the row loop over it (dotWindowGeneric) bit for bit.
func dotRowGeneric(t, f *byte, n int) int64 {
	ts := unsafe.Slice(t, n)
	fs := unsafe.Slice(f, n)
	var p0, p1, p2, p3 int64
	i := 0
	for ; i <= n-8; i += 8 {
		tt := ts[i : i+8 : i+8]
		ff := fs[i : i+8 : i+8]
		p0 += int64(tt[0])*int64(ff[0]) + int64(tt[4])*int64(ff[4])
		p1 += int64(tt[1])*int64(ff[1]) + int64(tt[5])*int64(ff[5])
		p2 += int64(tt[2])*int64(ff[2]) + int64(tt[6])*int64(ff[6])
		p3 += int64(tt[3])*int64(ff[3]) + int64(tt[7])*int64(ff[7])
	}
	for ; i < n; i++ {
		p0 += int64(ts[i]) * int64(fs[i])
	}
	return (p0 + p1) + (p2 + p3)
}

// dotWindowGeneric is the portable Σ t·f over a w×h window: t is the
// template, w×h contiguous bytes, and f the window's top-left pixel in a
// frame whose rows are stride bytes apart. It is the reference every
// architecture-specific dotWindow must match exactly.
func dotWindowGeneric(t, f *byte, w, h, stride int) int64 {
	var sum int64
	for j := 0; j < h; j++ {
		sum += dotRowGeneric((*byte)(unsafe.Add(unsafe.Pointer(t), j*w)),
			(*byte)(unsafe.Add(unsafe.Pointer(f), j*stride)), w)
	}
	return sum
}
