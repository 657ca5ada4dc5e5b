package geom

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestFrameGraphDirectEdge(t *testing.T) {
	g := NewFrameGraph()
	tr := Transform{R: RotZ(0.5), T: V3(1, 2, 3)}
	g.Set("F1", "F2", tr)
	got, err := g.Resolve("F1", "F2")
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEq(tr, 1e-12) {
		t.Error("direct edge not returned verbatim")
	}
	inv, err := g.Resolve("F2", "F1")
	if err != nil {
		t.Fatal(err)
	}
	if !inv.ApproxEq(tr.Inverse(), 1e-12) {
		t.Error("reverse edge should be the inverse")
	}
}

func TestFrameGraphChain(t *testing.T) {
	// Paper Fig. 6 topology: F1 (camera 1) — F2 (camera 2) — F4 (P2 head).
	rng := rand.New(rand.NewSource(41))
	t12 := randTransform(rng)
	t24 := randTransform(rng)
	g := NewFrameGraph()
	g.Set("F1", "F2", t12)
	g.Set("F2", "F4", t24)

	got, err := g.Resolve("F1", "F4")
	if err != nil {
		t.Fatal(err)
	}
	want := t12.Compose(t24)
	if !got.ApproxEq(want, 1e-9) {
		t.Error("chained resolve != composed transforms (Eq. 2)")
	}
}

func TestFrameGraphSelf(t *testing.T) {
	g := NewFrameGraph()
	g.Set("A", "B", IdentityTransform())
	tr, err := g.Resolve("A", "A")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ApproxEq(IdentityTransform(), Epsilon) {
		t.Error("self-resolve should be identity")
	}
	if _, err := g.Resolve("Z", "Z"); !errors.Is(err, ErrNoPath) {
		t.Error("unknown self frame should error")
	}
}

func TestFrameGraphNoPath(t *testing.T) {
	g := NewFrameGraph()
	g.Set("A", "B", IdentityTransform())
	g.Set("C", "D", IdentityTransform())
	if _, err := g.Resolve("A", "C"); !errors.Is(err, ErrNoPath) {
		t.Errorf("expected ErrNoPath, got %v", err)
	}
	if _, err := g.Resolve("A", "nope"); !errors.Is(err, ErrNoPath) {
		t.Errorf("expected ErrNoPath for unknown frame, got %v", err)
	}
}

func TestFrameGraphCycleConsistency(t *testing.T) {
	// A triangle of consistent transforms must resolve identically along
	// either path.
	rng := rand.New(rand.NewSource(42))
	tab := randTransform(rng)
	tbc := randTransform(rng)
	tac := tab.Compose(tbc)
	g := NewFrameGraph()
	g.Set("A", "B", tab)
	g.Set("B", "C", tbc)
	g.Set("A", "C", tac)
	got, err := g.Resolve("A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEq(tac, 1e-9) {
		t.Error("cycle-consistent graph resolved inconsistently")
	}
}

func TestFrameGraphConcurrent(t *testing.T) {
	g := NewFrameGraph()
	g.Set("A", "B", IdentityTransform())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			g.Set("A", "B", Transform{R: RotZ(float64(i)), T: Vec3{}})
		}(i)
		go func() {
			defer wg.Done()
			_, _ = g.Resolve("A", "B")
		}()
	}
	wg.Wait()
}
