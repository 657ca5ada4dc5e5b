//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation counts below only hold in a normal build.

package nn

import (
	"math/rand"
	"testing"
)

// TestClassifyAllocationFree pins the inference contract the pipeline
// leans on: once the scratch pool is warm, Classify and ClassifyBatch
// (into retained buffers) allocate nothing.
func TestClassifyAllocationFree(t *testing.T) {
	n, err := New(Config{Sizes: []int{944, 48, 7}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := randomInputs(rand.New(rand.NewSource(3)), 8, 944)
	if a := testing.AllocsPerRun(100, func() {
		if _, _, err := n.Classify(xs[0]); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm Classify allocates %v times, want 0", a)
	}
	cls, conf := make([]int, 0, len(xs)), make([]float64, 0, len(xs))
	if a := testing.AllocsPerRun(100, func() {
		if cls, conf, err = n.ClassifyBatch(xs, cls, conf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm ClassifyBatch allocates %v times, want 0", a)
	}
}
