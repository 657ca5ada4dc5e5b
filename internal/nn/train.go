package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// TrainOptions configure a training run: minibatch Adam over batches
// of batchSize samples, with l2 weight decay.
type TrainOptions struct {
	// Epochs is the number of passes over the data (default 20).
	Epochs int
	// LearningRate is Adam's step size (default 0.001).
	LearningRate float64
	// Seed drives minibatch shuffling.
	Seed int64
}

// Training constants: the minibatch size and the weight-decay
// coefficient.
const (
	batchSize = 32
	l2        = 1e-4
)

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.001
	}
	return o
}

// ErrBadData reports inconsistent training data.
var ErrBadData = errors.New("nn: bad training data")

// Train fits the network to (samples, labels) and returns the mean loss
// per epoch. It mutates the network in place.
func (n *Network) Train(samples [][]float64, labels []int, opt TrainOptions) ([]float64, error) {
	if len(samples) == 0 || len(samples) != len(labels) {
		return nil, fmt.Errorf("nn: %d samples vs %d labels: %w", len(samples), len(labels), ErrBadData)
	}
	opt = opt.withDefaults()

	// Adam's first and second moments.
	vel := n.newGrads()
	sq := n.newGrads()
	adamT := 0

	rng := rand.New(rand.NewSource(opt.Seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}

	history := make([]float64, 0, opt.Epochs)
	for e := 0; e < opt.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += batchSize {
			end := start + batchSize
			if end > len(order) {
				end = len(order)
			}
			g := n.newGrads()
			for _, idx := range order[start:end] {
				loss, err := n.backward(samples[idx], labels[idx], g)
				if err != nil {
					return history, fmt.Errorf("nn: sample %d: %w", idx, err)
				}
				epochLoss += loss
			}
			scale := 1 / float64(end-start)
			adamT++
			n.applyUpdate(g, vel, sq, scale, adamT, opt)
		}
		history = append(history, epochLoss/float64(len(order)))
	}
	return history, nil
}

// applyUpdate applies one Adam step from accumulated batch gradients
// (scaled by 1/batch).
func (n *Network) applyUpdate(g, vel, sq *grads, scale float64, t int, opt TrainOptions) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	update := func(w, gw, vw, sw []float64) {
		for i := range w {
			grad := gw[i]*scale + l2*w[i]
			vw[i] = beta1*vw[i] + (1-beta1)*grad
			sw[i] = beta2*sw[i] + (1-beta2)*grad*grad
			mHat := vw[i] / (1 - math.Pow(beta1, float64(t)))
			vHat := sw[i] / (1 - math.Pow(beta2, float64(t)))
			w[i] -= opt.LearningRate * mHat / (math.Sqrt(vHat) + eps)
		}
	}
	for l := range n.w {
		update(n.w[l], g.w[l], vel.w[l], sq.w[l])
		update(n.b[l], g.b[l], vel.b[l], sq.b[l])
	}
}
