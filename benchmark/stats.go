package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It never interpolates, so a reported latency
// is always one that was measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// aggregation names how one run value is made from its cycle values
// (README "Aggregation").
type aggregation string

const (
	// aggBest takes the best cycle: noise on a shared box only ever
	// adds time, so the best cycle is the closest reading of what the
	// code can do. Every end-to-end timing uses it, on cycle values
	// that are themselves best windows (README "Aggregation").
	aggBest aggregation = "best"
	// aggMedian takes the median over cycles: the typical cycle, slow
	// spells included. Per-layer metrics use it.
	aggMedian aggregation = "median_of_cycles"
	// aggExact requires every cycle to report the same value.
	aggExact aggregation = "exact"
	// aggLast marks values read once per run, not per cycle (set-up
	// time, peak RSS); aggregate is never asked for it.
	aggLast aggregation = "run"
)

// aggregate folds per-cycle values into the run value.
func aggregate(agg aggregation, higherBetter bool, cycles []float64) (float64, error) {
	if len(cycles) == 0 {
		return 0, fmt.Errorf("no cycle values")
	}
	for _, v := range cycles {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("cycle value %v is not a number", v)
		}
	}
	switch agg {
	case aggBest:
		best := cycles[0]
		for _, v := range cycles[1:] {
			if (higherBetter && v > best) || (!higherBetter && v < best) {
				best = v
			}
		}
		return best, nil
	case aggMedian:
		return median(cycles), nil
	case aggExact:
		for _, v := range cycles[1:] {
			if v != cycles[0] {
				return 0, fmt.Errorf("count differs between cycles: %v", cycles)
			}
		}
		return cycles[0], nil
	}
	return 0, fmt.Errorf("unknown aggregation %q", agg)
}

// spread is (max − min) / median of the cycle values: how far the
// cycles of one run disagreed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// maxPairwiseDeviation is the largest |a−b| / min(|a|,|b|) over all
// pairs: the worst disagreement between any two runs of the same code.
// The A/A table prints it beside the statistic it gates on,
// quartileSpread.
func maxPairwiseDeviation(xs []float64) float64 {
	worst := 0.0
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			base := math.Min(math.Abs(xs[i]), math.Abs(xs[j]))
			if base == 0 {
				if xs[i] != xs[j] {
					return math.Inf(1)
				}
				continue
			}
			worst = math.Max(worst, math.Abs(xs[i]-xs[j])/base)
		}
	}
	return worst
}

// quartileSpread is the driver's steadiness statistic: the distance
// between the first and third quartile as a share of the median, with
// the quartiles Python's statistics.quantiles(values, n=4) gives
// (exclusive method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// bestWindowRate is the highest rate, in items per second, over every
// window of w consecutive items of a closed-loop phase. at[0] is the
// phase's start and at[i] the completion of item i. A phase shorter
// than one window is one window.
func bestWindowRate(at []time.Duration, w int) float64 {
	n := len(at) - 1
	if n < 1 {
		return math.NaN()
	}
	if w > n {
		w = n
	}
	best := 0.0
	for i := w; i <= n; i++ {
		if d := at[i] - at[i-w]; d > 0 {
			best = math.Max(best, float64(w)/d.Seconds())
		}
	}
	return best
}

// bestChunkMedian is the lowest median over the non-overlapping windows
// of n consecutive samples (one window if there are fewer than 2n).
func bestChunkMedian(xs []float64, n int) float64 {
	if len(xs) < 2*n {
		return median(xs)
	}
	best := math.Inf(1)
	for i := 0; i+n <= len(xs); i += n {
		best = math.Min(best, median(xs[i:i+n]))
	}
	return best
}
