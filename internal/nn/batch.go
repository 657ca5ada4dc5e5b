package nn

import "fmt"

// batchActs is a pooled set of flat batch activation matrices: m[l]
// holds batch×sizes[l] values, sample-major, for layer l ≥ 1 (the
// input layer is read straight from the caller's slices). Buffers grow
// to the largest batch seen and are reused verbatim afterwards. one is
// the one-element batch header the single-sample entry points run
// their input through.
type batchActs struct {
	m   [][]float64
	one [1][]float64
}

// acquireBatch returns a pooled batch activation set with capacity for
// batch samples.
func (n *Network) acquireBatch(batch int) *batchActs {
	s, _ := n.batchPool.Get().(*batchActs)
	if s == nil {
		s = &batchActs{m: make([][]float64, len(n.sizes))}
	}
	for l := 1; l < len(n.sizes); l++ {
		need := batch * n.sizes[l]
		if cap(s.m[l]) < need {
			s.m[l] = make([]float64, need)
		}
		s.m[l] = s.m[l][:need]
	}
	return s
}

// releaseBatch returns an activation set to the pool, dropping the
// one-sample input reference so pooled scratch never pins caller data.
func (n *Network) releaseBatch(s *batchActs) {
	s.one[0] = nil
	n.batchPool.Put(s)
}

// forwardOne runs x through the forward pass as a batch of one. The
// caller must releaseBatch the result.
func (n *Network) forwardOne(x []float64) (*batchActs, error) {
	sc := n.acquireBatch(1)
	sc.one[0] = x
	if err := n.forwardBatch(sc, sc.one[:]); err != nil {
		n.releaseBatch(sc)
		return nil, err
	}
	return sc, nil
}

// PredictBatch returns the softmax class probabilities for every input
// in xs, in order. Results are bit-identical to calling Predict on
// each input: both run the same loop, which keeps each sample's
// per-neuron accumulation in one fixed order whatever the batch size —
// one weight-row walk serves the whole batch instead of being
// re-streamed from memory per sample, which is where the batch speedup
// comes from.
func (n *Network) PredictBatch(xs [][]float64) ([][]float64, error) {
	sc := n.acquireBatch(len(xs))
	defer n.releaseBatch(sc)
	if err := n.forwardBatch(sc, xs); err != nil {
		return nil, err
	}
	width := n.sizes[len(n.sizes)-1]
	flat := append([]float64(nil), sc.m[len(sc.m)-1]...)
	out := make([][]float64, len(xs))
	for s := range out {
		out[s] = flat[s*width : (s+1)*width : (s+1)*width]
	}
	return out, nil
}

// ClassifyBatch returns the argmax class and its probability for every
// input in xs, appending into cls and conf (pass nil to allocate, or
// retained buffers to reuse their capacity). Results are bit-identical
// to per-sample Classify calls.
func (n *Network) ClassifyBatch(xs [][]float64, cls []int, conf []float64) ([]int, []float64, error) {
	cls, conf = cls[:0], conf[:0]
	sc := n.acquireBatch(len(xs))
	defer n.releaseBatch(sc)
	if err := n.forwardBatch(sc, xs); err != nil {
		return nil, nil, err
	}
	width := n.sizes[len(n.sizes)-1]
	probs := sc.m[len(sc.m)-1]
	for s := range xs {
		best, bp := argmax(probs[s*width : (s+1)*width])
		cls = append(cls, best)
		conf = append(conf, bp)
	}
	return cls, conf, nil
}

// forwardBatch is the network's forward pass: it runs xs into sc
// (acquired for len(xs) samples), leaving every sample's layer-l
// activations in sc.m[l] and its softmax row in sc.m[last].
func (n *Network) forwardBatch(sc *batchActs, xs [][]float64) error {
	for s, x := range xs {
		if len(x) != n.sizes[0] {
			return fmt.Errorf("nn: batch sample %d: input %d, want %d: %w", s, len(x), n.sizes[0], ErrBadInput)
		}
	}
	batch := len(xs)
	for l := 0; l+1 < len(n.sizes); l++ {
		in, out := n.sizes[l], n.sizes[l+1]
		prev := sc.m[l] // nil for l == 0; xs is read directly
		cur := sc.m[l+1]
		// Neuron-block-outer, sample-inner: four weight rows stay hot in
		// cache across the whole batch, and their four independent
		// accumulators hide the add latency a single chain would wait
		// on. Blocking over neurons rather than samples speeds up every
		// batch size; the pipeline sends one or two faces per camera.
		// Each accumulation runs bias first, then inputs in index order,
		// independent of the batch and block around it, so a sample
		// rounds identically at any batch size. The explicit float64
		// conversions forbid fusing a product into its add.
		w, b := n.w[l], n.b[l]
		j := 0
		for ; j+4 <= out; j += 4 {
			r0 := w[j*in : (j+1)*in]
			r1 := w[(j+1)*in : (j+2)*in]
			r2 := w[(j+2)*in : (j+3)*in]
			r3 := w[(j+3)*in : (j+4)*in]
			for s := 0; s < batch; s++ {
				x := xs[s]
				if l > 0 {
					x = prev[s*in : (s+1)*in]
				}
				a0, a1, a2, a3 := b[j], b[j+1], b[j+2], b[j+3]
				for i, xi := range x {
					a0 += float64(r0[i] * xi)
					a1 += float64(r1[i] * xi)
					a2 += float64(r2[i] * xi)
					a3 += float64(r3[i] * xi)
				}
				c := cur[s*out+j : s*out+j+4]
				c[0], c[1], c[2], c[3] = a0, a1, a2, a3
			}
		}
		for ; j < out; j++ {
			row := w[j*in : (j+1)*in]
			for s := 0; s < batch; s++ {
				x := xs[s]
				if l > 0 {
					x = prev[s*in : (s+1)*in]
				}
				acc := b[j]
				for i, xi := range x {
					acc += float64(row[i] * xi)
				}
				cur[s*out+j] = acc
			}
		}
		if l+2 < len(n.sizes) { // hidden layer
			for i, v := range cur {
				cur[i] = n.hidden.apply(v)
			}
		} else { // output: softmax per sample
			for s := 0; s < batch; s++ {
				softmaxInPlace(cur[s*out : (s+1)*out])
			}
		}
	}
	return nil
}
