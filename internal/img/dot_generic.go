//go:build !amd64 || purego

package img

// dotRow returns Σ t[i]·f[i] for i in [0, n): the portable scalar
// implementation for architectures without a hand-tuned kernel, and for
// any architecture under the purego build tag (how check.sh runs the
// detector and skip-contract suites on this path from an amd64 box). Four
// accumulators keep the multiply pipeline busy; arithmetic is exact
// integer either way, so every implementation returns the same value.
func dotRow(t, f *byte, n int) int64 {
	return dotRowGeneric(t, f, n)
}
