package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Optimizer selects the parameter-update rule.
type Optimizer uint8

// Supported optimizers. Adam is the zero value and therefore the
// default for TrainOptions.
const (
	// Adam is adaptive moment estimation.
	Adam Optimizer = iota
	// SGD is stochastic gradient descent with momentum.
	SGD
)

// TrainOptions configure a training run.
type TrainOptions struct {
	// Epochs is the number of passes over the data (default 20).
	Epochs int
	// BatchSize is the minibatch size (default 32).
	BatchSize int
	// LearningRate defaults to 0.01 for SGD, 0.001 for Adam.
	LearningRate float64
	// Momentum applies to SGD only (default 0.9).
	Momentum float64
	// L2 is the weight-decay coefficient (default 1e-4).
	L2 float64
	// Optimizer defaults to Adam.
	Optimizer Optimizer
	// Seed drives minibatch shuffling.
	Seed int64
	// OnEpoch, when non-nil, observes (epoch, meanLoss) after each
	// epoch; returning false stops training early.
	OnEpoch func(epoch int, loss float64) bool
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LearningRate == 0 {
		if o.Optimizer == Adam {
			o.LearningRate = 0.001
		} else {
			o.LearningRate = 0.01
		}
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	if o.L2 == 0 {
		o.L2 = 1e-4
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

	// Optimizer state.
	vel := n.newGrads() // SGD momentum / Adam first moment
	sq := n.newGrads()  // Adam second moment
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
		for start := 0; start < len(order); start += opt.BatchSize {
			end := start + opt.BatchSize
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
		mean := epochLoss / float64(len(order))
		history = append(history, mean)
		if opt.OnEpoch != nil && !opt.OnEpoch(e, mean) {
			break
		}
	}
	return history, nil
}

// applyUpdate applies one optimizer step from accumulated batch
// gradients (scaled by 1/batch).
func (n *Network) applyUpdate(g, vel, sq *grads, scale float64, t int, opt TrainOptions) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	update := func(w, gw, vw, sw []float64) {
		for i := range w {
			grad := gw[i]*scale + opt.L2*w[i]
			switch opt.Optimizer {
			case Adam:
				vw[i] = beta1*vw[i] + (1-beta1)*grad
				sw[i] = beta2*sw[i] + (1-beta2)*grad*grad
				mHat := vw[i] / (1 - math.Pow(beta1, float64(t)))
				vHat := sw[i] / (1 - math.Pow(beta2, float64(t)))
				w[i] -= opt.LearningRate * mHat / (math.Sqrt(vHat) + eps)
			default: // SGD with momentum
				vw[i] = opt.Momentum*vw[i] - opt.LearningRate*grad
				w[i] += vw[i]
			}
		}
	}
	for l := range n.w {
		update(n.w[l], g.w[l], vel.w[l], sq.w[l])
		update(n.b[l], g.b[l], vel.b[l], sq.b[l])
	}
}
