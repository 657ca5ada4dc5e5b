// Package nn implements the feed-forward neural network DiEvent uses as
// its emotion classifier (paper §II-C: "neural network as a classifier").
// It is a from-scratch multilayer perceptron: dense layers, ReLU/tanh/
// sigmoid activations, a softmax + cross-entropy head, SGD with momentum
// and Adam optimisers, minibatch training, and binary serialisation for
// shipping trained models.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Activation selects the hidden-layer nonlinearity.
type Activation uint8

// Supported activations.
const (
	ReLU Activation = iota
	Tanh
	Sigmoid
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	}
	return fmt.Sprintf("activation(%d)", uint8(a))
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case Tanh:
		return math.Tanh(x)
	default: // Sigmoid
		return 1 / (1 + math.Exp(-x))
	}
}

// derivFromOut computes the activation derivative from the *activated*
// output value (all three supported activations allow this).
func (a Activation) derivFromOut(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default: // Sigmoid
		return y * (1 - y)
	}
}

// Config describes a network.
type Config struct {
	// Sizes lists layer widths, input first, output (class count) last.
	// Must have ≥ 2 entries, all positive.
	Sizes []int
	// Hidden is the hidden-layer activation (output is always softmax).
	Hidden Activation
	// Seed drives weight initialisation.
	Seed int64
}

// Network is a trained or trainable MLP. The output layer applies
// softmax; training minimises cross-entropy. There is one forward pass,
// the batched one: Predict, Classify and training's backprop run their
// sample as a batch of one. Inference is safe for concurrent callers —
// every pass borrows its activation scratch from a pool instead of
// mutating shared state.
type Network struct {
	sizes  []int
	hidden Activation
	// w[l] is the (sizes[l+1] × sizes[l]) weight matrix, row-major;
	// b[l] the bias vector of layer l+1.
	w, b [][]float64

	// batchPool recycles forward-pass activation matrices (*batchActs),
	// so warm inference allocates nothing.
	batchPool sync.Pool
}

// Package errors.
var (
	ErrBadConfig = errors.New("nn: bad configuration")
	ErrBadInput  = errors.New("nn: input size mismatch")
)

// New initialises a network with He/Xavier-scaled random weights.
func New(cfg Config) (*Network, error) {
	if len(cfg.Sizes) < 2 {
		return nil, fmt.Errorf("nn: need ≥2 layer sizes, got %d: %w", len(cfg.Sizes), ErrBadConfig)
	}
	for _, s := range cfg.Sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer size %d: %w", s, ErrBadConfig)
		}
	}
	n := &Network{
		sizes:  append([]int(nil), cfg.Sizes...),
		hidden: cfg.Hidden,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for l := 0; l+1 < len(cfg.Sizes); l++ {
		in, out := cfg.Sizes[l], cfg.Sizes[l+1]
		// He initialisation for ReLU, Xavier otherwise.
		scale := math.Sqrt(2 / float64(in))
		if cfg.Hidden != ReLU {
			scale = math.Sqrt(1 / float64(in))
		}
		w := make([]float64, in*out)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.w = append(n.w, w)
		n.b = append(n.b, make([]float64, out))
	}
	return n, nil
}

// Sizes returns the layer widths.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// Predict returns the softmax class probabilities for x.
func (n *Network) Predict(x []float64) ([]float64, error) {
	sc, err := n.forwardOne(x)
	if err != nil {
		return nil, err
	}
	p := append([]float64(nil), sc.m[len(sc.m)-1]...)
	n.releaseBatch(sc)
	return p, nil
}

// Classify returns the argmax class and its probability. It allocates
// nothing once the scratch pool is warm.
func (n *Network) Classify(x []float64) (int, float64, error) {
	sc, err := n.forwardOne(x)
	if err != nil {
		return 0, 0, err
	}
	best, bp := argmax(sc.m[len(sc.m)-1])
	n.releaseBatch(sc)
	return best, bp, nil
}

// argmax returns the index and value of p's largest entry (the first
// on ties).
func argmax(p []float64) (int, float64) {
	best, bp := 0, p[0]
	for i, v := range p[1:] {
		if v > bp {
			best, bp = i+1, v
		}
	}
	return best, bp
}

// softmaxInPlace converts logits to probabilities, stably.
func softmaxInPlace(z []float64) {
	maxz := z[0]
	for _, v := range z[1:] {
		if v > maxz {
			maxz = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - maxz)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// grads holds per-layer parameter gradients with the same shapes as the
// network's weights.
type grads struct {
	w, b [][]float64
}

func (n *Network) newGrads() *grads {
	g := &grads{}
	for l := range n.w {
		g.w = append(g.w, make([]float64, len(n.w[l])))
		g.b = append(g.b, make([]float64, len(n.b[l])))
	}
	return g
}

// backward accumulates gradients of the cross-entropy loss for one
// sample into g and returns the sample's loss.
func (n *Network) backward(x []float64, label int, g *grads) (float64, error) {
	sc, err := n.forwardOne(x)
	if err != nil {
		return 0, err
	}
	defer n.releaseBatch(sc)
	acts := sc.m          // acts[l]: layer l's activations, l ≥ 1
	L := len(n.sizes) - 1 // number of weight layers
	out := acts[L]
	if label < 0 || label >= len(out) {
		return 0, fmt.Errorf("nn: label %d outside [0,%d): %w", label, len(out), ErrBadInput)
	}
	loss := -math.Log(math.Max(out[label], 1e-15))

	// Softmax + cross-entropy delta: p − onehot.
	delta := make([]float64, len(out))
	copy(delta, out)
	delta[label] -= 1

	for l := L - 1; l >= 0; l-- {
		in := n.sizes[l]
		prev := x
		if l > 0 {
			prev = acts[l]
		}
		// Parameter gradients.
		for j, dj := range delta {
			row := g.w[l][j*in : (j+1)*in]
			for i, pi := range prev {
				row[i] += dj * pi
			}
			g.b[l][j] += dj
		}
		if l == 0 {
			break
		}
		// Propagate delta to the previous (hidden) layer.
		nd := make([]float64, in)
		for i := 0; i < in; i++ {
			var s float64
			for j, dj := range delta {
				s += n.w[l][j*in+i] * dj
			}
			nd[i] = s * n.hidden.derivFromOut(prev[i])
		}
		delta = nd
	}
	return loss, nil
}
