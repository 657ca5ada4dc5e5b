package img

import (
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

// TestDotWindowMatchesGeneric is a generated property test of the
// architecture-specific window kernel against the scalar reference:
// every width 1–96 (so every 16/8/4 chunk boundary and ragged tail),
// heights 1–96, frame strides wider than the window, and random
// byte offsets. The sum is exact integer, so the match must be exact.
// It ends at the largest template NewTemplateMatcher accepts, with
// every pixel of template and frame at 255 (the widest lane values and
// a sum just below 2³²), and checks that the matcher refuses one pixel
// more.
func TestDotWindowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const maxW, maxH, maxPad = 96, 96, 40
	tbuf := make([]uint8, maxW*maxH+16)
	fbuf := make([]uint8, (maxW+maxPad)*maxH+16)
	for i := range tbuf {
		tbuf[i] = uint8(rng.Intn(256))
	}
	for i := range fbuf {
		fbuf[i] = uint8(rng.Intn(256))
	}
	for w := 1; w <= maxW; w++ {
		for trial := 0; trial < 12; trial++ {
			h := 1 + rng.Intn(maxH)
			if trial < 2 {
				h = []int{1, maxH}[trial]
			}
			stride := w + rng.Intn(maxPad+1)
			tp, fp := &tbuf[rng.Intn(16)], &fbuf[rng.Intn(16)]
			got := dotWindow(tp, fp, w, h, stride)
			want := dotWindowGeneric(tp, fp, w, h, stride)
			if got != want {
				t.Fatalf("w=%d h=%d stride=%d: dotWindow=%d generic=%d", w, h, stride, got, want)
			}
		}
	}

	for _, dims := range [][2]int{{257, MaxExactRegionPixels / 257}, {MaxExactRegionPixels, 1}} {
		w, h := dims[0], dims[1]
		tpl := New(w, h)
		tpl.Fill(255)
		frame := New(w+3, h)
		frame.Fill(255)
		NewTemplateMatcher(tpl)
		want := int64(w*h) * 255 * 255
		if got := dotWindowGeneric(&tpl.Pix[0], &frame.Pix[0], w, h, frame.W); got != want {
			t.Fatalf("%dx%d saturated: generic=%d, want %d", w, h, got, want)
		}
		if got := dotWindow(&tpl.Pix[0], &frame.Pix[0], w, h, frame.W); got != want {
			t.Fatalf("%dx%d saturated: dotWindow=%d, want %d", w, h, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewTemplateMatcher accepted %d pixels", MaxExactRegionPixels+1)
		}
	}()
	NewTemplateMatcher(New(MaxExactRegionPixels+1, 1))
}

// TestScoreCascadeSkipContract fuzzes the matcher's one reject, the
// variance gate: a scored window must be bit-identical to Score, a
// skip must be justified (the window truly falls below the floor), and
// a window below the floor is never scored. Both outcomes must occur,
// or the contract is checked vacuously.
func TestScoreCascadeSkipContract(t *testing.T) {
	var skips, accepts int
	for seed := int64(0); seed < 4; seed++ {
		g := scenicImage(160, 120, seed+50)
		in, sq := BuildIntegrals(g, nil, nil)
		for _, th := range []int{12, 24, 48} {
			tpl := scenicImage(th*5/6, th, seed+150)
			m := NewTemplateMatcher(tpl)
			rng := rand.New(rand.NewSource(seed * 37))
			for trial := 0; trial < 300; trial++ {
				x := rng.Intn(g.W - m.W + 1)
				y := rng.Intn(g.H - m.H + 1)
				minVar := []float64{-1, 0, 60, 400}[trial%4]
				exact := m.Score(g, in, sq, x, y)
				n := uint64(m.W * m.H)
				win := Rect{X: x, Y: y, W: m.W, H: m.H}
				s := in.RegionSumUnclipped(win)
				q := sq.RegionSumUnclipped(win)
				variance := float64(n*q-s*s) / float64(n*n)
				below := minVar >= 0 && variance < minVar
				got, ok := m.ScoreCascade(g, in, sq, x, y, minVar)
				if !ok {
					skips++
					if !below {
						t.Fatalf("seed=%d h=%d (%d,%d) minVar=%v: window of variance %v skipped",
							seed, th, x, y, minVar, variance)
					}
					continue
				}
				accepts++
				if below {
					t.Fatalf("seed=%d h=%d (%d,%d): variance %v < floor %v but window was scored",
						seed, th, x, y, variance, minVar)
				}
				if got != exact {
					t.Fatalf("seed=%d h=%d (%d,%d): score %v != Score %v", seed, th, x, y, got, exact)
				}
			}
		}
	}
	if skips == 0 || accepts == 0 {
		t.Errorf("%d skips, %d accepts: the gate must both skip and score", skips, accepts)
	}
}
