//go:build amd64 && !purego

package img

// dotWindow returns Σ t·f over a w×h window: t is the template, w×h
// contiguous bytes, and f the window's top-left pixel in a frame whose
// rows are stride bytes apart. The amd64 implementation (dot_amd64.s)
// runs the whole window in one call: per row it widens both byte
// streams to 16-bit lanes and uses PMADDWD, baseline SSE2 on every
// amd64, to form eight products per instruction, and the four 32-bit
// lanes carry the sum across rows. All arithmetic is exact modulo 2³²
// and the true sum of a window NewTemplateMatcher accepts is below 2³²
// (MaxExactRegionPixels), so the result is bit-identical to
// dotWindowGeneric.
//
//go:noescape
func dotWindow(t, f *byte, w, h, stride int) int64
