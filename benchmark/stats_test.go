package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {100, 10}, {10, 1}, {1, 1}, {91, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// With 100 samples p90 leaves exactly ten beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestAggregate(t *testing.T) {
	cycles := []float64{412, 386, 394, 410, 313}
	if got, _ := aggregate(aggBest, true, cycles); got != 412 {
		t.Errorf("best of a throughput = %v, want the highest", got)
	}
	if got, _ := aggregate(aggBest, false, cycles); got != 313 {
		t.Errorf("best of a latency = %v, want the lowest", got)
	}
	if got, _ := aggregate(aggMedian, false, cycles); got != 394 {
		t.Errorf("median of cycles = %v, want 394", got)
	}
	if got, _ := aggregate(aggMedian, false, []float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got, err := aggregate(aggExact, false, []float64{67.5, 67.5, 67.5}); err != nil || got != 67.5 {
		t.Errorf("exact of equal counts = %v, %v", got, err)
	}
	if _, err := aggregate(aggExact, false, []float64{67.5, 67.5, 67.6}); err == nil {
		t.Error("exact must fail the run when a count differs between cycles")
	}
	if _, err := aggregate(aggBest, false, nil); err == nil {
		t.Error("no cycle values must be an error")
	}
	if _, err := aggregate(aggMedian, false, []float64{1, math.NaN()}); err == nil {
		t.Error("a NaN cycle value (a phase that measured nothing) must be an error")
	}
}

func TestSpreadAndDeviation(t *testing.T) {
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := maxPairwiseDeviation([]float64{100, 104, 110}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("max pairwise deviation = %v, want 0.10", got)
	}
	if got := maxPairwiseDeviation([]float64{5, 5, 5}); got != 0 {
		t.Errorf("identical runs deviate by %v", got)
	}
}

// The driver computes its spread with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want %v", got, want)
	}
	// quantiles([2.20, 2.43, 2.31, 2.25, 2.38], n=4) = [2.225, 2.31, 2.405]
	ys := []float64{2.20, 2.43, 2.31, 2.25, 2.38}
	if got, want := quartileSpread(ys), (2.405-2.225)/2.31; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

func TestPacerDueTimesAndLateness(t *testing.T) {
	start := time.Now()
	p := newPacer(start, 250, 4)
	if p.interval != 4*time.Millisecond {
		t.Fatalf("250/s paces at %v, want 4ms", p.interval)
	}
	if got := p.due(3).Sub(start); got != 12*time.Millisecond {
		t.Errorf("item 3 due after %v, want 12ms", got)
	}
	if got := lateness(start, start.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	if got := lateness(start.Add(time.Second), start); got != 0 {
		t.Errorf("an early release is %v late, want 0", got)
	}

	// wait sleeps until the due time and books how late it woke.
	released := p.wait(2)
	if released.Before(p.due(2)) {
		t.Errorf("item 2 released %v before it was due", p.due(2).Sub(released))
	}
	// A schedule that fell behind releases at once and the backlog
	// shows as lateness instead of as a lower offered rate.
	behind := newPacer(time.Now().Add(-time.Second), 100, 1)
	t0 := time.Now()
	behind.wait(0)
	if time.Since(t0) > 50*time.Millisecond {
		t.Error("an overdue item must not sleep")
	}
	if behind.late[0] < time.Second {
		t.Errorf("overdue item booked %v of lateness, want ≥ 1s", behind.late[0])
	}
	if got := meanMS([]time.Duration{time.Millisecond, 3 * time.Millisecond}); got != 2 {
		t.Errorf("meanMS = %v, want 2", got)
	}
}

func TestBestWindowRate(t *testing.T) {
	// Ten items; the first five take 10 ms each, the last five 2 ms.
	at := []time.Duration{0}
	for i := 1; i <= 10; i++ {
		step := 10 * time.Millisecond
		if i > 5 {
			step = 2 * time.Millisecond
		}
		at = append(at, at[len(at)-1]+step)
	}
	if got := bestWindowRate(at, 5); math.Abs(got-500) > 1e-9 {
		t.Errorf("best 5-item window = %v items/s, want 500 (the fast half)", got)
	}
	if got := bestWindowRate(at, 10); math.Abs(got-10/0.06) > 1e-9 {
		t.Errorf("one window over everything = %v items/s, want the phase's mean rate", got)
	}
	if got := bestWindowRate(at, 50); math.Abs(got-10/0.06) > 1e-9 {
		t.Errorf("a phase shorter than a window is one window, got %v", got)
	}
	if !math.IsNaN(bestWindowRate([]time.Duration{0}, 5)) {
		t.Error("no completed item has no rate")
	}
}

func TestBestChunkMedian(t *testing.T) {
	// A slow spell over the first window must not reach the result.
	xs := []float64{9, 8, 9, 8, 9, 1, 2, 3, 2, 1, 5, 5, 5, 5, 5}
	if got := bestChunkMedian(xs, 5); got != 2 {
		t.Errorf("best 5-sample window median = %v, want 2", got)
	}
	if got := bestChunkMedian([]float64{3, 1, 2}, 5); got != 2 {
		t.Errorf("fewer samples than two windows fall back to the median, got %v", got)
	}
}
