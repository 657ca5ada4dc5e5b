package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSmokeEveryWorkload runs each workload for one tiny traced cycle
// with every guard on, so go test keeps the benchmark compiling and its
// correctness checks live. It asserts no timing.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, full := range workloads {
		w := full.shrunk(10)
		t.Run(w.name, func(t *testing.T) {
			b, err := setUp(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			out, err := b.runCycle(0, tr, true)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%d of %d operations failed", out.failed, out.attempted)
			}
			for _, m := range endToEnd {
				if m.agg == aggLast {
					continue // set-up time and peak RSS are read once per run
				}
				if v, ok := out.v[m.name]; !ok || !(v > 0) {
					t.Errorf("cycle reported %s = %v", m.name, v)
				}
			}
			for _, root := range []string{"live.frame", "client.query", "cold.query"} {
				bud := selfBudget(out.spans, root)
				if bud.Roots == 0 || bud.gap() > maxBudgetGap {
					t.Errorf("budget of %s: %d roots, gap %.1f%%\n%s", root, bud.Roots, 100*bud.gap(), bud)
				}
			}
			if len(out.verify) != len(b.q.distinct()) {
				t.Errorf("verification round kept %d queries, want %d", len(out.verify), len(b.q.distinct()))
			}
			if _, err := b.runProbes(); err != nil {
				t.Errorf("probes: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json, which the driver
// reads, in step with the metric and workload tables the program uses
// (regenerate it with `out/dievent-bench -contract`), and the tables
// inside the contract's limits.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if want := contractJSON(bj.RunSeconds); !bytes.Equal(data, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; -contract prints:\n%s", want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %s (%s): name or unit outside the contract's alphabet", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric name %s is used twice", m.name)
		}
		seen[m.name] = true
		if m.bound > 0.25 {
			t.Errorf("metric %s: bound %v above the contract's 0.25", m.name, m.bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, w := range workloads {
		if len(w.why) > 200 || !name.MatchString(w.name) {
			t.Errorf("workload %s: name outside the alphabet or why longer than 200 characters", w.name)
		}
	}
}

// shrunk returns the workload with every count divided by f (at least
// one of each), for the smoke test: same phases and guards, tiny sizes.
func (w workload) shrunk(f int) workload {
	div := func(n int) int { return max(n/f, 1) }
	w.historyRecords = max(w.historyRecords/f, 40_000) // past the first burst of the rare label
	w.pipeFrames = max(div(w.pipeFrames), 80)
	w.pipeWindow = max(div(w.pipeWindow), 10)
	w.liveFrames = max(div(w.liveFrames), 20)
	w.ingestBatches = div(w.ingestBatches)
	w.followBatches = max(div(w.followBatches), 10)
	w.pointQueries = max(div(w.pointQueries), 30)
	w.scanQueries = max(div(w.scanQueries), 4)
	w.coldQueries = div(w.coldQueries)
	w.fullOpens = 1
	return w
}
