package main

import (
	"fmt"
	"os"
)

// runAA is the A/A gate: it runs the suite n times on the current tree,
// each time with another seed as the driver does, and checks for every
// (workload, end-to-end metric) the driver's own steadiness rule: the
// quartile spread of the n run values must stay within the metric's
// bound. The largest deviation between any two runs is printed beside
// it; on this box it runs at up to twice the quartile spread, and the
// contract caps a bound at 0.25, so gating on it (as the issue words it)
// would fail identical code (README "A/A table and bounds").
//
// One more suite then repeats the first seed: every exact count must
// read what it read in the first run with that seed.
func runAA(n int, seed int64, seconds int) int {
	suite := func(seed int64) (map[string]map[string]float64, error) {
		vals := map[string]map[string]float64{} // workload → metric → value
		for _, w := range workloads {
			var err error
			if vals[w.name], err = child(w, seed, seconds, 0, false); err != nil {
				return nil, err
			}
		}
		return vals, nil
	}
	var runs []map[string]map[string]float64
	for i := 0; i <= n; i++ {
		s := seed + int64(i)
		if i == n {
			s = seed
		}
		vals, err := suite(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runs = append(runs, vals)
		fmt.Fprintf(os.Stderr, "suite %d/%d (seed %d) done\n", i+1, n+1, s)
	}
	code := 0
	fmt.Printf("| workload | metric | median | max pairwise dev | quartile spread | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var xs []float64
			for _, run := range runs[:n] {
				xs = append(xs, run[w.name][m.name])
			}
			dev, qs := maxPairwiseDeviation(xs), quartileSpread(xs)
			verdict := "ok"
			// setup_s is gated on its median only, as by the driver: a
			// one-shot cost spreads wider than any bound worth enforcing.
			if qs > m.bound && m.name != "setup_s" {
				verdict = "BREACH"
				code = 1
			}
			fmt.Printf("| %s | %s | %.4g %s | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, m.name, median(xs), m.unit, 100*dev, 100*qs, 100*m.bound, verdict)
		}
	}
	for _, w := range workloads {
		for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if m.agg != aggExact {
				continue
			}
			first, again := runs[0][w.name][m.name], runs[n][w.name][m.name]
			verdict := "ok"
			if first != again {
				verdict = "BREACH"
				code = 1
			}
			fmt.Printf("same seed %d: %s %s = %v, then %v: %s\n", seed, w.name, m.name, first, again, verdict)
		}
	}
	return code
}
