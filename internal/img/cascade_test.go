package img

import (
	"math"
	"math/rand"
	"testing"
)

// naiveBlockSum computes the k×k block sum grid of g directly from
// pixels — the oracle for BuildPyramid.
func naiveBlockSum(g *Gray, k int) []uint16 {
	bw, bh := (g.W+k-1)/k, (g.H+k-1)/k
	out := make([]uint16, bw*bh)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out[(y/k)*bw+x/k] += uint16(g.Pix[y*g.W+x])
		}
	}
	return out
}

func TestBuildPyramidMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{64, 48}, {63, 47}, {65, 49}, {8, 8}, {7, 13}, {640, 480}} {
		g := New(dims[0], dims[1])
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(256))
		}
		in, _ := BuildIntegrals(g, nil, nil)
		p := BuildPyramid(g, in, nil)
		for _, lv := range []struct {
			k      int
			s      []uint16
			bw, bh int
		}{{2, p.S2, p.W2, p.H2}, {4, p.S4, p.W4, p.H4}} {
			want := naiveBlockSum(g, lv.k)
			if lv.bw != (dims[0]+lv.k-1)/lv.k || lv.bh != (dims[1]+lv.k-1)/lv.k {
				t.Fatalf("%dx%d k=%d: grid %dx%d", dims[0], dims[1], lv.k, lv.bw, lv.bh)
			}
			for i := range want {
				if lv.s[i] != want[i] {
					t.Fatalf("%dx%d k=%d block %d: got %d want %d",
						dims[0], dims[1], lv.k, i, lv.s[i], want[i])
				}
			}
		}
	}
}

func TestBuildPyramidReuse(t *testing.T) {
	g := scenicImage(100, 80, 3)
	in, _ := BuildIntegrals(g, nil, nil)
	p := BuildPyramid(g, in, nil)
	s2, s4 := &p.S2[0], &p.S4[0]
	BuildPyramid(g, in, p)
	if &p.S2[0] != s2 || &p.S4[0] != s4 {
		t.Fatal("BuildPyramid reallocated buffers it could reuse")
	}
}

// TestDotRowMatchesGeneric fuzzes the architecture-specific dot kernel
// against the scalar reference for every length, including the 16/8/4
// chunk boundaries and ragged tails. The sum is exact integer, so the
// match must be exact.
func TestDotRowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]uint8, 256)
	buf2 := make([]uint8, 256)
	for i := range buf {
		buf[i] = uint8(rng.Intn(256))
		buf2[i] = uint8(rng.Intn(256))
	}
	for n := 1; n <= 128; n++ {
		for off := 0; off < 3; off++ {
			a, b := buf[off:off+n], buf2[off:off+n]
			got := dotRow(&a[0], &b[0], n)
			want := dotRowGeneric(&a[0], &b[0], n)
			if got != want {
				t.Fatalf("n=%d off=%d: dotRow=%d generic=%d", n, off, got, want)
			}
		}
	}
	// Saturation check: all-255 rows exercise the widest lane values.
	for i := range buf {
		buf[i], buf2[i] = 255, 255
	}
	if got, want := dotRow(&buf[0], &buf2[0], 256), dotRowGeneric(&buf[0], &buf2[0], 256); got != want {
		t.Fatalf("saturated: dotRow=%d generic=%d", got, want)
	}
}

// TestPyrBoundNeverBelowNumerator is the pyramid tier's never-wrong-
// skip contract: for every tier, window and anchor parity, the tier's
// bound must sit at or above the window's true NCC numerator (up to
// the documented 1e-6·den slack the cascade budgets for float
// accumulation). A violation is exactly the failure that would let the
// cascade skip a window the oracle accepts.
func TestPyrBoundNeverBelowNumerator(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := scenicImage(160, 120, seed)
		in, sq := BuildIntegrals(g, nil, nil)
		pyr := BuildPyramid(g, in, nil)
		for _, th := range []int{12, 24, 48} {
			tpl := scenicImage(th*5/6, th, seed+100)
			m := NewTemplateMatcher(tpl)
			rng := rand.New(rand.NewSource(seed * 31))
			for trial := 0; trial < 200; trial++ {
				x := rng.Intn(g.W - m.W + 1)
				y := rng.Intn(g.H - m.H + 1)
				// True numerator Σ tpl′·(f − mw) = Σ tpl′·f (since Σ tpl′ = 0
				// exactly in exact arithmetic — reconstructed here in float,
				// hence the slack).
				var num float64
				for j := 0; j < m.H; j++ {
					for i := 0; i < m.W; i++ {
						num += (float64(m.tpl[j*m.W+i]) - m.mean) * float64(g.Pix[(y+j)*g.W+x+i])
					}
				}
				n := uint64(m.W * m.H)
				win := Rect{X: x, Y: y, W: m.W, H: m.H}
				s := in.RegionSumUnclipped(win)
				q := sq.RegionSumUnclipped(win)
				da := float64(n*q-s*s) / float64(n)
				den := math.Sqrt(da * m.norm2)
				slack := 1e-6*den + 1e-6
				for ti := range m.tiers {
					b := m.pyrBound(&m.tiers[ti], sq, pyr, x, y)
					if b < num-slack {
						t.Fatalf("seed=%d h=%d (%d,%d) tier k=%d: bound %.6f below numerator %.6f",
							seed, th, x, y, m.tiers[ti].k, b, num)
					}
				}
			}
		}
	}
}

// TestScoreCascadeSkipContract fuzzes the full cascade: an accepted
// score must be bit-identical to the exact kernel, and a skip must be
// justified — either the window truly scores below the bound, or (when
// a variance floor is given) it truly falls below the floor. This is
// the never-wrong-skip contract for every reject tier at once
// (variance gate, pyramid ladder, and the in-scan row early-out with
// its deviation tracking). The variance gate must also be exact the
// other way — a window below the floor is never scored — and both
// outcomes must occur, or the contract is checked vacuously.
func TestScoreCascadeSkipContract(t *testing.T) {
	var skips, accepts int
	for seed := int64(0); seed < 4; seed++ {
		g := scenicImage(160, 120, seed+50)
		in, sq := BuildIntegrals(g, nil, nil)
		pyr := BuildPyramid(g, in, nil)
		for _, th := range []int{12, 24, 48} {
			tpl := scenicImage(th*5/6, th, seed+150)
			m := NewTemplateMatcher(tpl)
			rng := rand.New(rand.NewSource(seed * 37))
			for trial := 0; trial < 300; trial++ {
				x := rng.Intn(g.W - m.W + 1)
				y := rng.Intn(g.H - m.H + 1)
				bound := []float64{-0.5, 0, 0.3, 0.7, 0.95}[trial%5]
				minVar := []float64{-1, -1, 60, 400}[trial%4]
				exact := m.Score(g, in, sq, x, y)
				n := uint64(m.W * m.H)
				win := Rect{X: x, Y: y, W: m.W, H: m.H}
				s := in.RegionSumUnclipped(win)
				q := sq.RegionSumUnclipped(win)
				variance := float64(n*q-s*s) / float64(n*n)
				got, ok := m.ScoreCascade(g, in, sq, pyr, x, y, bound, minVar)
				if ok {
					accepts++
					if minVar >= 0 && variance < minVar {
						t.Fatalf("seed=%d h=%d (%d,%d): variance %v < floor %v but window was scored",
							seed, th, x, y, variance, minVar)
					}
					if got != exact {
						t.Fatalf("seed=%d h=%d (%d,%d): accepted score %v != exact %v",
							seed, th, x, y, got, exact)
					}
					continue
				}
				skips++
				if minVar >= 0 && variance < minVar {
					continue // variance-gate skip: justified
				}
				if exact >= bound {
					t.Fatalf("seed=%d h=%d (%d,%d) bound=%v minVar=%v: skipped window scores %v",
						seed, th, x, y, bound, minVar, exact)
				}
			}
		}
	}
	if skips == 0 || accepts == 0 {
		t.Errorf("%d skips, %d accepts: the cascade must both prune and score", skips, accepts)
	}
}
