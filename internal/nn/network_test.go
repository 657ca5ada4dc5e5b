package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Sizes: []int{4}}); !errors.Is(err, ErrBadConfig) {
		t.Error("single layer should fail")
	}
	if _, err := New(Config{Sizes: []int{4, 0, 2}}); !errors.Is(err, ErrBadConfig) {
		t.Error("zero width should fail")
	}
	n, err := New(Config{Sizes: []int{4, 8, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Sizes(); len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 3 {
		t.Errorf("sizes = %v", got)
	}
}

func TestPredictShapeAndSimplex(t *testing.T) {
	n, _ := New(Config{Sizes: []int{3, 5, 4}, Seed: 2})
	p, err := n.Predict([]float64{0.1, -0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("output size %d", len(p))
	}
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("probability %v outside [0,1]", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if _, err := n.Predict([]float64{1}); !errors.Is(err, ErrBadInput) {
		t.Error("wrong input size should fail")
	}
}

func TestSoftmaxStability(t *testing.T) {
	z := []float64{1000, 1001, 999}
	softmaxInPlace(z)
	var sum float64
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflow")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v", sum)
	}
	if !(z[1] > z[0] && z[0] > z[2]) {
		t.Error("softmax ordering wrong")
	}
}

// TestGradientCheck verifies analytic backprop gradients against central
// finite differences — the canonical correctness test for a hand-written
// network.
func TestGradientCheck(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, Sigmoid} {
		n, _ := New(Config{Sizes: []int{3, 4, 3}, Hidden: act, Seed: 3})
		x := []float64{0.3, -0.7, 0.5}
		label := 1

		g := n.newGrads()
		if _, err := n.backward(x, label, g); err != nil {
			t.Fatal(err)
		}

		const h = 1e-6
		lossAt := func() float64 {
			p, err := n.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			return -math.Log(math.Max(p[label], 1e-15))
		}
		checked := 0
		for l := range n.w {
			for i := range n.w[l] {
				old := n.w[l][i]
				n.w[l][i] = old + h
				lp := lossAt()
				n.w[l][i] = old - h
				lm := lossAt()
				n.w[l][i] = old
				num := (lp - lm) / (2 * h)
				ana := g.w[l][i]
				if diff := math.Abs(num - ana); diff > 1e-4*(1+math.Abs(num)) {
					t.Errorf("%v w[%d][%d]: numeric %v vs analytic %v", act, l, i, num, ana)
				}
				checked++
			}
			for i := range n.b[l] {
				old := n.b[l][i]
				n.b[l][i] = old + h
				lp := lossAt()
				n.b[l][i] = old - h
				lm := lossAt()
				n.b[l][i] = old
				num := (lp - lm) / (2 * h)
				if diff := math.Abs(num - g.b[l][i]); diff > 1e-4*(1+math.Abs(num)) {
					t.Errorf("%v b[%d][%d]: numeric %v vs analytic %v", act, l, i, num, g.b[l][i])
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no parameters checked")
		}
	}
}

// xorData builds the XOR problem, the classic nonlinear sanity check.
func xorData() ([][]float64, []int) {
	samples := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	return samples, labels
}

// accuracy is the fraction of samples Classify labels correctly.
func accuracy(t *testing.T, n *Network, samples [][]float64, labels []int) float64 {
	t.Helper()
	correct := 0
	for i, x := range samples {
		c, _, err := n.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if c == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func TestTrainLearnsXOR(t *testing.T) {
	for _, opt := range []Optimizer{SGD, Adam} {
		n, _ := New(Config{Sizes: []int{2, 8, 2}, Hidden: Tanh, Seed: 4})
		samples, labels := xorData()
		hist, err := n.Train(samples, labels, TrainOptions{
			Epochs: 800, BatchSize: 4, Optimizer: opt, Seed: 5, L2: 1e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if acc := accuracy(t, n, samples, labels); acc != 1 {
			t.Errorf("%v: XOR accuracy = %v, want 1 (final loss %v)", opt, acc, hist[len(hist)-1])
		}
		if hist[len(hist)-1] >= hist[0] {
			t.Errorf("%v: loss did not decrease: %v -> %v", opt, hist[0], hist[len(hist)-1])
		}
	}
}

func TestTrainGaussianBlobs(t *testing.T) {
	// Three well-separated Gaussian blobs: must reach ≥95% accuracy.
	rng := rand.New(rand.NewSource(6))
	centers := [][]float64{{0, 0}, {4, 4}, {-4, 4}}
	var samples [][]float64
	var labels []int
	for c, ctr := range centers {
		for i := 0; i < 100; i++ {
			samples = append(samples, []float64{
				ctr[0] + rng.NormFloat64()*0.6,
				ctr[1] + rng.NormFloat64()*0.6,
			})
			labels = append(labels, c)
		}
	}
	n, _ := New(Config{Sizes: []int{2, 16, 3}, Hidden: ReLU, Seed: 7})
	if _, err := n.Train(samples, labels, TrainOptions{Epochs: 60, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, n, samples, labels); acc < 0.95 {
		t.Errorf("blob accuracy = %v", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	n, _ := New(Config{Sizes: []int{2, 2}, Seed: 1})
	if _, err := n.Train(nil, nil, TrainOptions{}); !errors.Is(err, ErrBadData) {
		t.Error("empty data should fail")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{0, 1}, TrainOptions{}); !errors.Is(err, ErrBadData) {
		t.Error("length mismatch should fail")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{9}, TrainOptions{Epochs: 1}); err == nil {
		t.Error("out-of-range label should fail")
	}
}

func TestEarlyStopping(t *testing.T) {
	n, _ := New(Config{Sizes: []int{2, 4, 2}, Seed: 9})
	samples, labels := xorData()
	epochs := 0
	hist, err := n.Train(samples, labels, TrainOptions{
		Epochs: 100,
		OnEpoch: func(e int, loss float64) bool {
			epochs++
			return e < 4 // stop after 5 epochs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5 || epochs != 5 {
		t.Errorf("ran %d epochs (history %d), want 5", epochs, len(hist))
	}
}

func TestTrainDeterministic(t *testing.T) {
	run := func() []float64 {
		n, _ := New(Config{Sizes: []int{2, 6, 2}, Seed: 10})
		samples, labels := xorData()
		h, err := n.Train(samples, labels, TrainOptions{Epochs: 30, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic under fixed seeds")
		}
	}
}
