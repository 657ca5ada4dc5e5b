//go:build amd64 && !purego

package img

// dotRow returns Σ t[i]·f[i] for i in [0, n) — the integer inner
// product of one template row against one frame row. The amd64
// implementation (dot_amd64.s) widens both byte streams to 16-bit
// lanes and uses PMADDWD, baseline SSE2 on every amd64, to form eight
// products per instruction; all arithmetic is exact integer (products
// ≤ 255², per-lane sums ≤ n·2·255² which fits int32 for any row this
// package scores), so the result is bit-identical to the scalar loop
// in dotRowGeneric.
//
//go:noescape
func dotRow(t, f *byte, n int) int64
