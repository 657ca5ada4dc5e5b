package hmm

import (
	"repro/internal/scene"
)

// Dining-activity observation model after Gao et al. [16]: per-frame
// behavioural features are quantised into a small symbol alphabet the
// HMM segments into activity phases. The features available to the
// baseline are deliberately the *single-camera* cues the 2004 system
// used — how many diners face their plates, whether anyone speaks, and
// whether mutual gaze occurs — in contrast to DiEvent's full multilayer
// evidence.

// DiningSymbols is the alphabet size of the dining featurizer:
// 3 (table-gaze fraction bucket) × 2 (away-gaze present) × 2 (speaking)
// × 2 (eye contact).
const DiningSymbols = 24

// DiningSymbol quantises one ground-truth frame into a symbol.
// dropout ∈ [0,1) flips features pseudo-randomly to model detector
// noise; pass 0 for clean features.
func DiningSymbol(fs scene.FrameState, dropout float64, seed int64) int {
	n := len(fs.Persons)
	if n == 0 {
		return 0
	}
	table, away := 0, 0
	speaking := false
	for _, p := range fs.Persons {
		switch p.Target.Kind {
		case scene.LookAtTable:
			table++
		case scene.LookAway:
			away++
		}
		if p.Speaking {
			speaking = true
		}
	}
	ec := false
	m := fs.TrueLookAt()
	for i := 0; i < n && !ec; i++ {
		for j := i + 1; j < n; j++ {
			if m[i][j] == 1 && m[j][i] == 1 {
				ec = true
				break
			}
		}
	}

	if dropout > 0 {
		r := noise(seed, uint64(fs.Index))
		if r.chance(dropout) {
			table = int(r.next() % uint64(n+1))
		}
		if r.chance(dropout) {
			away = int(r.next() % uint64(n+1))
		}
		if r.chance(dropout) {
			speaking = !speaking
		}
		if r.chance(dropout) {
			ec = !ec
		}
	}

	frac := float64(table) / float64(n)
	bucket := 0
	switch {
	case frac >= 0.67:
		bucket = 2
	case frac >= 0.34:
		bucket = 1
	}
	sym := bucket
	if away > 0 {
		sym += 3
	}
	if speaking {
		sym += 6
	}
	if ec {
		sym += 12
	}
	return sym
}

// BurstModel describes bursty gaze-layer failure: with probability
// PerFrameStart a blackout begins at a frame and lasts Len frames.
// During a blackout every gaze-derived feature (table/away gaze counts,
// eye contact) reads as noise — the camera-occlusion scenario the
// paper's multilayer design targets ("reduces the ratio of total
// failure"). Speaking (audio) and affect (face readable from any
// remaining camera) are not gaze-geometry features and survive.
type BurstModel struct {
	PerFrameStart float64
	Len           int
}

// burstMask precomputes which frames of an n-frame event are blacked
// out.
func (bm BurstModel) burstMask(n int, seed int64) []bool {
	mask := make([]bool, n)
	if bm.PerFrameStart <= 0 || bm.Len <= 0 {
		return mask
	}
	r := noise(seed^0xB0B0, 0)
	for i := 0; i < n; i++ {
		if r.chance(bm.PerFrameStart) {
			for k := i; k < i+bm.Len && k < n; k++ {
				mask[k] = true
			}
		}
	}
	return mask
}

// FeaturizeScenarioBursty produces baseline and multilayer symbol
// sequences under the same bursty gaze-layer failures, plus ground-truth
// phases. During blackout frames the gaze-derived part of both symbols
// is randomised; the multilayer symbol keeps its (independently sensed)
// affect component.
func FeaturizeScenarioBursty(sim *scene.Simulator, bm BurstModel, seed int64) (base, multi []int, phases []scene.Phase) {
	n := sim.NumFrames()
	base = make([]int, n)
	multi = make([]int, n)
	phases = make([]scene.Phase, n)
	mask := bm.burstMask(n, seed)
	r := noise(seed^0xFA11, 1)
	for i := 0; i < n; i++ {
		fs := sim.FrameState(i)
		phases[i] = fs.Phase
		b := DiningSymbol(fs, 0, seed)
		m := MultilayerSymbol(fs, 0, seed)
		if mask[i] {
			// Gaze-derived bits (table bucket, away, EC) are noise;
			// speaking (bit 6..) survives in both, affect survives in
			// the multilayer symbol.
			speaking := (b / 6) % 2
			affect := m / DiningSymbols
			gazeNoise := int(r.next() % 12) // random bucket/away/EC combo
			nb := (gazeNoise % 6) + speaking*6 + (gazeNoise/6)*12
			b = nb
			m = nb + affect*DiningSymbols
		}
		base[i] = b
		multi[i] = m
	}
	return base, multi, phases
}

// FeaturizeScenario converts a whole simulated event into the symbol
// sequence plus the ground-truth phase per frame.
func FeaturizeScenario(sim *scene.Simulator, dropout float64, seed int64) (symbols []int, phases []scene.Phase) {
	n := sim.NumFrames()
	symbols = make([]int, n)
	phases = make([]scene.Phase, n)
	for i := 0; i < n; i++ {
		fs := sim.FrameState(i)
		symbols[i] = DiningSymbol(fs, dropout, seed)
		phases[i] = fs.Phase
	}
	return symbols, phases
}

// MultilayerSymbols is the alphabet of the DiEvent-side activity
// featurizer: the baseline's cues (table/away gaze, speaking, eye
// contact) enriched with the emotion layer — 24 × 3 affect buckets.
const MultilayerSymbols = DiningSymbols * 3

// MultilayerSymbol quantises a frame using DiEvent's fused layers: the
// baseline's single-camera cues plus the dominant table affect
// (positive / neutral / negative) from the emotion layer. Experiment
// T-E contrasts segmentation with this richer alphabet against the Gao
// baseline's DiningSymbol.
func MultilayerSymbol(fs scene.FrameState, dropout float64, seed int64) int {
	base := DiningSymbol(fs, dropout, seed)
	pos, neg := 0, 0
	for _, p := range fs.Persons {
		if p.Emotion.Positive() {
			pos++
		}
		if p.Emotion.Negative() {
			neg++
		}
	}
	affect := 0 // neutral table
	switch {
	case pos > neg && pos > 0:
		affect = 1
	case neg > pos && neg > 0:
		affect = 2
	}
	// The emotion layer is a different sensor chain from the gaze
	// features, so its failures are independent and rarer: the sweep
	// variable models *gaze-layer* degradation (the paper's multilayer
	// claim is exactly that other layers cover such failures).
	if dropout > 0 {
		r := noise(seed^0x5151, uint64(fs.Index))
		if r.chance(dropout / 3) {
			affect = int(r.next() % 3)
		}
	}
	return base + affect*DiningSymbols
}

// FitSupervised estimates HMM parameters by maximum likelihood from
// labelled sequences over an m-symbol alphabet — the protocol of Gao et
// al., who trained on annotated nursing-home footage. States are the
// phases themselves, so Viterbi output needs no state-to-phase mapping.
// Counts are Laplace-smoothed so unseen transitions stay representable.
func FitSupervised(seqs [][]int, labels [][]scene.Phase, m int) (*HMM, error) {
	if len(seqs) == 0 || len(seqs) != len(labels) {
		return nil, ErrBadObs
	}
	if m < 2 {
		return nil, ErrBadModel
	}
	n := scene.NumPhases
	h := &HMM{N: n, M: m,
		Pi: make([]float64, n),
		A:  make([][]float64, n),
		B:  make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		h.A[i] = make([]float64, n)
		h.B[i] = make([]float64, m)
		// Laplace smoothing.
		for j := 0; j < n; j++ {
			h.A[i][j] = 1
		}
		for k := 0; k < m; k++ {
			h.B[i][k] = 1
		}
		h.Pi[i] = 1
	}
	for s, seq := range seqs {
		lab := labels[s]
		if len(seq) != len(lab) {
			return nil, ErrBadObs
		}
		for t, sym := range seq {
			if sym < 0 || sym >= m {
				return nil, ErrBadObs
			}
			ph := int(lab[t])
			if ph >= n {
				return nil, ErrBadObs
			}
			h.B[ph][sym]++
			if t == 0 {
				h.Pi[ph]++
			} else {
				h.A[int(lab[t-1])][ph]++
			}
		}
	}
	normalize(h.Pi)
	for i := 0; i < n; i++ {
		normalize(h.A[i])
		normalize(h.B[i])
	}
	// Dining phases progress strictly forward (arriving → ordering →
	// eating → talking → paying), so impose the left-right topology the
	// counts already approximate: without it, Viterbi can hop backwards
	// whenever a scripted gaze segment momentarily resembles an earlier
	// phase.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && j != i+1 {
				h.A[i][j] = 0
			}
		}
		normalize(h.A[i])
	}
	for i := range h.Pi {
		h.Pi[i] = 0
	}
	h.Pi[0] = 1
	return h, nil
}

// PhaseAccuracy returns the per-frame agreement between predicted and
// true phases.
func PhaseAccuracy(pred, truth []scene.Phase) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	ok := 0
	for i := range pred {
		if pred[i] == truth[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}

// noise is a tiny deterministic RNG for feature dropout.
type noiseRand struct{ state uint64 }

func noise(seed int64, frame uint64) *noiseRand {
	return &noiseRand{state: uint64(seed)*0x9E3779B97F4A7C15 ^ frame*0xBF58476D1CE4E5B9}
}

func (r *noiseRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *noiseRand) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}
