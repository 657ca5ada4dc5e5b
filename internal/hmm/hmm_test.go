package hmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/scene"
)

// knownHMM builds a 2-state, 2-symbol model with distinctive dynamics.
func knownHMM() *HMM {
	return &HMM{
		N: 2, M: 2,
		Pi: []float64{0.8, 0.2},
		A:  [][]float64{{0.9, 0.1}, {0.2, 0.8}},
		B:  [][]float64{{0.95, 0.05}, {0.1, 0.9}},
	}
}

// sample draws a sequence from the model.
func sample(h *HMM, T int, rng *rand.Rand) ([]int, []int) {
	draw := func(d []float64) int {
		r := rng.Float64()
		var c float64
		for i, p := range d {
			c += p
			if r < c {
				return i
			}
		}
		return len(d) - 1
	}
	obs := make([]int, T)
	states := make([]int, T)
	s := draw(h.Pi)
	for t := 0; t < T; t++ {
		states[t] = s
		obs[t] = draw(h.B[s])
		s = draw(h.A[s])
	}
	return obs, states
}

func TestViterbiRecoversStates(t *testing.T) {
	h := knownHMM()
	rng := rand.New(rand.NewSource(3))
	obs, states := sample(h, 500, rng)
	dec, err := h.Viterbi(obs)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range dec {
		if dec[i] == states[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(dec)); frac < 0.85 {
		t.Errorf("viterbi agreement = %v, want ≥ 0.85", frac)
	}
	if _, err := h.Viterbi(nil); !errors.Is(err, ErrBadObs) {
		t.Error("empty viterbi should fail")
	}
	if _, err := h.Viterbi([]int{0, -1}); !errors.Is(err, ErrBadObs) {
		t.Error("negative symbol should fail")
	}
	if _, err := h.Viterbi([]int{0, 9}); !errors.Is(err, ErrBadObs) {
		t.Error("out-of-alphabet symbol should fail")
	}
}

func TestDiningSymbolRange(t *testing.T) {
	sc, err := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1000, Seed: 7, Enjoyment: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := scene.NewSimulator(sc)
	if err != nil {
		t.Fatal(err)
	}
	syms, phases := FeaturizeScenario(sim, 0, 0)
	if len(syms) != 1000 || len(phases) != 1000 {
		t.Fatal("featurize length mismatch")
	}
	seen := map[int]bool{}
	for _, s := range syms {
		if s < 0 || s >= DiningSymbols {
			t.Fatalf("symbol %d outside alphabet", s)
		}
		seen[s] = true
	}
	if len(seen) < 4 {
		t.Errorf("only %d distinct symbols; featurizer too coarse", len(seen))
	}
}

func TestDiningSymbolDropoutChangesSymbols(t *testing.T) {
	sc, _ := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 500, Seed: 8, Enjoyment: 0.5})
	sim, _ := scene.NewSimulator(sc)
	clean, _ := FeaturizeScenario(sim, 0, 1)
	noisy, _ := FeaturizeScenario(sim, 0.3, 1)
	diff := 0
	for i := range clean {
		if clean[i] != noisy[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("dropout should perturb symbols")
	}
	// Determinism.
	noisy2, _ := FeaturizeScenario(sim, 0.3, 1)
	for i := range noisy {
		if noisy[i] != noisy2[i] {
			t.Fatal("dropout not deterministic")
		}
	}
}

// TestHMMSegmentsDinnerPhases is the end-to-end baseline check: an HMM
// trained on dinners must beat chance substantially on phase
// segmentation of a held-out dinner.
func TestHMMSegmentsDinnerPhases(t *testing.T) {
	var train [][]int
	var labels [][]scene.Phase
	for seed := int64(0); seed < 3; seed++ {
		sc, err := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1500, Seed: 10 + seed, Enjoyment: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		sim, _ := scene.NewSimulator(sc)
		syms, phases := FeaturizeScenario(sim, 0.05, seed)
		train = append(train, syms)
		labels = append(labels, phases)
	}
	sc, _ := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1500, Seed: 99, Enjoyment: 0.6})
	sim, _ := scene.NewSimulator(sc)
	syms, truth := FeaturizeScenario(sim, 0.05, 99)

	// Gao et al.'s protocol: fit on annotated training footage. Every
	// distribution of the fitted model must be stochastic.
	hs, err := FitSupervised(train, labels, DiningSymbols)
	if err != nil {
		t.Fatal(err)
	}
	dists := append([][]float64{hs.Pi}, append(hs.A, hs.B...)...)
	for i, d := range dists {
		var s float64
		for _, v := range d {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("distribution %d has entry %v", i, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("distribution %d sums to %v", i, s)
		}
	}
	statesS, err := hs.Viterbi(syms)
	if err != nil {
		t.Fatal(err)
	}
	predS := make([]scene.Phase, len(statesS))
	for i, s := range statesS {
		predS[i] = scene.Phase(s)
	}
	if acc := PhaseAccuracy(predS, truth); acc < 0.55 {
		t.Errorf("supervised HMM accuracy = %v, want ≥ 0.55", acc)
	}
}

func TestFitSupervisedValidation(t *testing.T) {
	if _, err := FitSupervised(nil, nil, DiningSymbols); !errors.Is(err, ErrBadObs) {
		t.Error("empty fit should fail")
	}
	if _, err := FitSupervised([][]int{{0}}, [][]scene.Phase{{0, 1}}, DiningSymbols); !errors.Is(err, ErrBadObs) {
		t.Error("length mismatch should fail")
	}
	if _, err := FitSupervised([][]int{{99}}, [][]scene.Phase{{0}}, DiningSymbols); !errors.Is(err, ErrBadObs) {
		t.Error("bad symbol should fail")
	}
}

func TestPhaseAccuracyEdges(t *testing.T) {
	if PhaseAccuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if PhaseAccuracy([]scene.Phase{0}, []scene.Phase{0, 1}) != 0 {
		t.Error("length mismatch should be 0")
	}
	if PhaseAccuracy([]scene.Phase{1, 1}, []scene.Phase{1, 0}) != 0.5 {
		t.Error("accuracy arithmetic wrong")
	}
}

func TestBurstyFeaturization(t *testing.T) {
	sc, _ := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1000, Seed: 21, Enjoyment: 0.6})
	sim, _ := scene.NewSimulator(sc)

	// No bursts: both sequences match the clean featurizers.
	b0, m0, ph := FeaturizeScenarioBursty(sim, BurstModel{}, 1)
	cleanB, cleanPh := FeaturizeScenario(sim, 0, 1)
	cleanM := make([]int, len(b0))
	for i := range cleanM {
		cleanM[i] = MultilayerSymbol(sim.FrameState(i), 0, 1)
	}
	for i := range b0 {
		if b0[i] != cleanB[i] || m0[i] != cleanM[i] || ph[i] != cleanPh[i] {
			t.Fatalf("burst-free featurization differs at %d", i)
		}
	}

	// With bursts: symbols stay in range, some frames corrupted, and
	// the multilayer affect component survives corruption.
	bm := BurstModel{PerFrameStart: 0.01, Len: 100}
	b1, m1, _ := FeaturizeScenarioBursty(sim, bm, 1)
	corrupted := 0
	for i := range b1 {
		if b1[i] < 0 || b1[i] >= DiningSymbols {
			t.Fatalf("baseline symbol %d out of range", b1[i])
		}
		if m1[i] < 0 || m1[i] >= MultilayerSymbols {
			t.Fatalf("multilayer symbol %d out of range", m1[i])
		}
		if b1[i] != cleanB[i] {
			corrupted++
			// Affect bucket (high part of the multilayer symbol) must
			// equal the clean affect — it comes from another sensor.
			if m1[i]/DiningSymbols != cleanM[i]/DiningSymbols {
				t.Fatalf("affect corrupted during gaze blackout at %d", i)
			}
		}
	}
	if corrupted == 0 {
		t.Error("bursts corrupted nothing")
	}
	// Determinism.
	b2, m2, _ := FeaturizeScenarioBursty(sim, bm, 1)
	for i := range b1 {
		if b1[i] != b2[i] || m1[i] != m2[i] {
			t.Fatal("bursty featurization not deterministic")
		}
	}
}
