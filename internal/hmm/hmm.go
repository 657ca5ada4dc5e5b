// Package hmm implements a discrete hidden Markov model — supervised
// maximum-likelihood fitting and Viterbi decoding — plus the
// dining-activity observation model of Gao et al. [16] ("Dining activity
// analysis using a hidden Markov model", ICPR 2004), the prior
// automated-dining-analysis system the paper cites. DiEvent's multilayer
// analysis is compared against this baseline in experiment T-E.
package hmm

import (
	"errors"
	"fmt"
	"math"
)

// HMM is a discrete-observation hidden Markov model with N states and M
// symbols.
type HMM struct {
	N, M int
	// Pi[i] is the initial state distribution.
	Pi []float64
	// A[i][j] is the transition probability i → j.
	A [][]float64
	// B[i][k] is the emission probability of symbol k in state i.
	B [][]float64
}

// Package errors.
var (
	ErrBadModel = errors.New("hmm: bad model")
	ErrBadObs   = errors.New("hmm: bad observation sequence")
)

func normalize(d []float64) {
	var s float64
	for _, v := range d {
		s += v
	}
	if s == 0 {
		for i := range d {
			d[i] = 1 / float64(len(d))
		}
		return
	}
	for i := range d {
		d[i] /= s
	}
}

// checkObs validates a sequence.
func (h *HMM) checkObs(obs []int) error {
	if len(obs) == 0 {
		return fmt.Errorf("hmm: empty sequence: %w", ErrBadObs)
	}
	for t, o := range obs {
		if o < 0 || o >= h.M {
			return fmt.Errorf("hmm: symbol %d at %d outside [0,%d): %w", o, t, h.M, ErrBadObs)
		}
	}
	return nil
}

// Viterbi returns the most likely hidden state sequence (log-space).
func (h *HMM) Viterbi(obs []int) ([]int, error) {
	if err := h.checkObs(obs); err != nil {
		return nil, err
	}
	T := len(obs)
	negInf := math.Inf(-1)
	logA := make([][]float64, h.N)
	logB := make([][]float64, h.N)
	logPi := make([]float64, h.N)
	lg := func(x float64) float64 {
		if x <= 0 {
			return negInf
		}
		return math.Log(x)
	}
	for i := 0; i < h.N; i++ {
		logPi[i] = lg(h.Pi[i])
		logA[i] = make([]float64, h.N)
		logB[i] = make([]float64, h.M)
		for j := 0; j < h.N; j++ {
			logA[i][j] = lg(h.A[i][j])
		}
		for k := 0; k < h.M; k++ {
			logB[i][k] = lg(h.B[i][k])
		}
	}
	delta := make([][]float64, T)
	psi := make([][]int, T)
	delta[0] = make([]float64, h.N)
	psi[0] = make([]int, h.N)
	for i := 0; i < h.N; i++ {
		delta[0][i] = logPi[i] + logB[i][obs[0]]
	}
	for t := 1; t < T; t++ {
		delta[t] = make([]float64, h.N)
		psi[t] = make([]int, h.N)
		for j := 0; j < h.N; j++ {
			best, arg := negInf, 0
			for i := 0; i < h.N; i++ {
				v := delta[t-1][i] + logA[i][j]
				if v > best {
					best, arg = v, i
				}
			}
			delta[t][j] = best + logB[j][obs[t]]
			psi[t][j] = arg
		}
	}
	// Backtrack.
	path := make([]int, T)
	best, arg := negInf, 0
	for i := 0; i < h.N; i++ {
		if delta[T-1][i] > best {
			best, arg = delta[T-1][i], i
		}
	}
	path[T-1] = arg
	for t := T - 2; t >= 0; t-- {
		path[t] = psi[t+1][path[t+1]]
	}
	return path, nil
}
