//go:build !amd64 || purego

package img

// dotWindow returns Σ t·f over a w×h window (see dotWindowGeneric): the
// portable implementation for architectures without a hand-tuned
// kernel, and for any architecture under the purego build tag (how
// check.sh runs the detector and matcher suites on this path from an
// amd64 box). Arithmetic is exact integer either way, so every
// implementation returns the same value.
func dotWindow(t, f *byte, w, h, stride int) int64 {
	return dotWindowGeneric(t, f, w, h, stride)
}
