//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation counts below only hold in a normal build.

package emotion

import "testing"

// TestClassifyAllocationFree: once the scratch pool is warm, Classify
// and ClassifyBatch (into retained buffers) allocate nothing, resizing
// included.
func TestClassifyAllocationFree(t *testing.T) {
	clf, test := sharedClassifier(t)
	big := GenerateFace(Happy, 7, 200).Resize(100, 120)
	if a := testing.AllocsPerRun(50, func() {
		if _, _, err := clf.Classify(big); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm Classify allocates %v times, want 0", a)
	}
	faces := test.Faces[:8]
	labels, confs := make([]Label, 0, len(faces)), make([]float64, 0, len(faces))
	var err error
	if a := testing.AllocsPerRun(50, func() {
		if labels, confs, err = clf.ClassifyBatch(faces, labels, confs); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm ClassifyBatch allocates %v times, want 0", a)
	}
}
