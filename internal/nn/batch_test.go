package nn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func randomInputs(rng *rand.Rand, n, width int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, width)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// TestPredictBatchMatchesPredict checks the batched forward pass is
// bit-identical to the single-sample path across activations, depths
// and batch sizes — the contract that lets callers switch freely.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, act := range []Activation{ReLU, Tanh, Sigmoid} {
		for _, sizes := range [][]int{{5, 7, 3}, {9, 12, 8, 4}, {3, 2}} {
			n, err := New(Config{Sizes: sizes, Hidden: act, Seed: int64(act) + int64(len(sizes))})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 2, 7, 33} {
				xs := randomInputs(rng, batch, sizes[0])
				got, err := n.PredictBatch(xs)
				if err != nil {
					t.Fatal(err)
				}
				cls, conf, err := n.ClassifyBatch(xs, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for s, x := range xs {
					want, err := n.Predict(x)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[s][i] != want[i] {
							t.Fatalf("act=%v sizes=%v batch=%d sample %d out %d: %v != %v",
								act, sizes, batch, s, i, got[s][i], want[i])
						}
					}
					wc, wp, _ := n.Classify(x)
					if cls[s] != wc || conf[s] != wp {
						t.Fatalf("act=%v sample %d: ClassifyBatch (%d,%v) != Classify (%d,%v)",
							act, s, cls[s], conf[s], wc, wp)
					}
				}
			}
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	n, _ := New(Config{Sizes: []int{4, 3}, Seed: 1})
	if out, err := n.PredictBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	if _, err := n.PredictBatch([][]float64{{1, 2, 3, 4}, {1}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short sample: err = %v", err)
	}
}

// TestNetworkBatchConcurrent hammers one shared network from many
// goroutines (run with -race): scratch pooling must not leak state
// across callers.
func TestNetworkBatchConcurrent(t *testing.T) {
	n, _ := New(Config{Sizes: []int{6, 9, 4}, Seed: 29})
	rng := rand.New(rand.NewSource(101))
	xs := randomInputs(rng, 24, 6)
	wantCls, wantConf, err := n.ClassifyBatch(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wc := append([]int(nil), wantCls...)
	wp := append([]float64(nil), wantConf...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cls []int
			var conf []float64
			for iter := 0; iter < 30; iter++ {
				var err error
				cls, conf, err = n.ClassifyBatch(xs, cls, conf)
				if err != nil {
					t.Error(err)
					return
				}
				for s := range xs {
					if cls[s] != wc[s] || conf[s] != wp[s] {
						t.Error("batch result drifted across concurrent calls")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// forwardOracle is the reference forward pass: one sample, one neuron
// at a time, one accumulator running bias first and then the inputs in
// index order, with the products unfused.
func forwardOracle(n *Network, x []float64) []float64 {
	for l := range n.w {
		in, out := n.sizes[l], n.sizes[l+1]
		y := make([]float64, out)
		for j := range y {
			acc := n.b[l][j]
			for i, xi := range x {
				acc += float64(n.w[l][j*in+i] * xi)
			}
			y[j] = acc
		}
		if l+1 < len(n.w) {
			for j, v := range y {
				y[j] = n.hidden.apply(v)
			}
		} else {
			softmaxInPlace(y)
		}
		x = y
	}
	return x
}

// TestForwardBatchMatchesOracle checks the neuron-blocked forward pass
// bit for bit against forwardOracle for batch sizes 1–13, every hidden
// activation, and layer widths below, at and past a multiple of the
// four-neuron block so both the blocked loop and its remainder run.
// Biases are randomised too: New leaves them zero.
func TestForwardBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, act := range []Activation{ReLU, Tanh, Sigmoid} {
		for _, sizes := range [][]int{{5, 7, 3}, {9, 13, 8, 6}, {3, 2}, {4, 1, 5}, {11, 4, 9}} {
			n, err := New(Config{Sizes: sizes, Hidden: act, Seed: rng.Int63()})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range n.b {
				for j := range b {
					b[j] = rng.NormFloat64()
				}
			}
			for batch := 1; batch <= 13; batch++ {
				xs := randomInputs(rng, batch, sizes[0])
				got, err := n.PredictBatch(xs)
				if err != nil {
					t.Fatal(err)
				}
				for s, x := range xs {
					want := forwardOracle(n, x)
					for i := range want {
						if got[s][i] != want[i] {
							t.Fatalf("act=%v sizes=%v batch=%d sample %d out %d: %v, oracle %v",
								act, sizes, batch, s, i, got[s][i], want[i])
						}
					}
				}
			}
		}
	}
}
