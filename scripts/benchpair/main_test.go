package main

import "testing"

func pairsOf(name string, parent, change []float64) [][2]*runResult {
	pairs := make([][2]*runResult, len(parent))
	for i := range parent {
		pairs[i] = [2]*runResult{
			{EndToEnd: map[string]runValue{name: {parent[i]}}},
			{EndToEnd: map[string]runValue{name: {change[i]}}},
		}
	}
	return pairs
}

// TestVerdicts pins each verdict of the choosing-metrics rules on ten
// hand-made pairs.
func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 160, 60, 100, 150, 70, 100, 140, 65, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name           string
		better         string
		parent, change []float64
		bounded        bool
		want           string
		wins           int
	}{
		{"gain, higher is better", "higher", steady, scale(steady, 2), true, "gain", 10},
		{"gain, lower is better", "lower", steady, scale(steady, 0.5), true, "gain", 10},
		{"a per-layer metric can gain", "lower", steady, scale(steady, 0.5), false, "gain", 10},
		{"nine of ten is enough", "higher", steady, append(scale(steady[:9], 2), 50), true, "gain", 9},
		{"eight of ten is not", "higher", steady, append(scale(steady[:8], 2), 50, 50), true, "within", 8},
		{"won every pair but by less than the parent's spread", "higher", noisy, scale(noisy, 1.01), true, "unresolved", 10},
		{"identical per pair, different per seed", "lower", noisy, noisy, true, "identical", 0},
		{"worse by more than the bound", "higher", steady, scale(steady, 0.7), true, "REGRESSION", 0},
		{"worse within the bound", "higher", steady, scale(steady, 0.9), true, "within", 0},
		{"worse, but the parent spreads wider than the bound", "higher", noisy, scale(noisy, 0.7), true, "unresolved", 0},
		{"noisy parent, every change run better than every parent run", "higher", noisy, scale(steady, 3), true, "gain", 10},
		{"per-layer metrics have no bound to break", "higher", steady, scale(steady, 0.7), false, "", 0},
	}
	for _, c := range cases {
		m := metricDef{Name: "m", Better: c.better, Bound: 0.25}
		s, ok := summarise(pairsOf("m", c.parent, c.change), m, c.bounded)
		if !ok || s.Verdict != c.want || s.Wins != c.wins || s.Pairs != 10 {
			t.Errorf("%s: verdict %q wins %d pairs %d (ok %v), want %q with %d wins", c.name, s.Verdict, s.Wins, s.Pairs, ok, c.want, c.wins)
		}
	}
	if _, ok := summarise(pairsOf("other", steady, steady), metricDef{Name: "m"}, true); ok {
		t.Error("a metric no run reported was summarised")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.125: 1.5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("single value: %v", got)
	}
}
