// Command benchmark is the repository's one end-to-end benchmark: three
// workloads, each a run of i.i.d. cycles whose every phase drives the
// product through its exported API only (README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all three, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 30, "how long the measured cycles may last; the minimum cycle count wins over it")
		trace    = flag.Int("trace", 0, "1 = also run the per-layer probes and one traced cycle, and put the per-layer metrics on the last line")
		contract = flag.Bool("contract", false, "print BENCHMARK.json from the program's workload and metric tables and exit")
		aa       = flag.Int("aa", 0, "run the suite N times on this tree, check every end-to-end metric's quartile spread against its bound, then repeat the first seed and check the exact counts")
	)
	flag.Parse()
	switch {
	case *contract:
		os.Stdout.Write(contractJSON(*seconds))
		return
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout, *trace == 1)
	if !res.Correct {
		os.Exit(1)
	}
}

// metricResult is one metric of one run with the cycle values behind it.
type metricResult struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Agg    string    `json:"aggregation,omitempty"`
	Cycles []float64 `json:"cycles,omitempty"`
	// Spread is (max − min) / median of the cycle values.
	Spread float64 `json:"spread,omitempty"`
	// Samples is the number of latency samples behind each cycle's
	// percentile.
	Samples int `json:"samples_per_cycle,omitempty"`
}

// result is everything one run of one workload reports; it is written
// whole to out/<workload>.result.json.
type result struct {
	Env       envStamp                `json:"env"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]metricResult `json:"end_to_end"`
	PerLayer  map[string]metricResult `json:"per_layer,omitempty"`
	// PhaseSeconds is the median wall time of each phase.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	Budgets      []budget           `json:"budgets,omitempty"`
}

// minCycles is how many measured cycles a run has at least; --seconds
// can only add to them.
const minCycles = 7

// runWorkload is one run: set-up, a discarded warm-up cycle, the
// measured cycles, and with trace the probes and the traced cycle.
func runWorkload(w workload, seed int64, budget time.Duration, trace bool) (*result, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	dataRoot := filepath.Join("out", fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	res := &result{
		Env:          stampEnv(w.name, seed, dataRoot),
		EndToEnd:     map[string]metricResult{},
		PhaseSeconds: map[string]float64{},
	}

	// Set-up runs five times and reports its median: one reading of a
	// one-shot cost is as noisy as the box.
	var b *bench
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if b, err = setUp(w, seed, dataRoot); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	warm, err := b.runCycle(0, nil, true)
	if err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	res.Attempted, res.Failed = warm.attempted, warm.failed

	var outs []*cycleOut
	start := time.Now()
	for k := 1; ; k++ {
		out, err := b.runCycle(k, nil, false)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", k, err)
		}
		if err := sameResults(warm, out); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", k, err)
		}
		outs = append(outs, out)
		res.Attempted += out.attempted
		res.Failed += out.failed
		elapsed := time.Since(start)
		if k >= minCycles && elapsed+elapsed/time.Duration(k) > budget {
			break
		}
	}
	res.Env.Cycles = len(outs)
	calib := cycleValues(outs, "host.calib_cpu_ms")
	res.Env.Disturbed = median(calib) > 1.1*slices.Min(calib)

	for _, m := range endToEnd {
		var mr metricResult
		switch m.name {
		case "setup_s":
			mr = metricResult{Value: median(setups), Unit: m.unit, Agg: "median_of_5", Cycles: setups, Spread: spread(setups)}
		case "peak_rss_mb":
			continue // read last, below
		default:
			if mr, err = fold(m, outs); err != nil {
				return nil, err
			}
		}
		res.EndToEnd[m.name] = mr
	}
	for name := range outs[0].phases {
		var xs []float64
		for _, o := range outs {
			xs = append(xs, o.phases[name])
		}
		res.PhaseSeconds[name] = median(xs)
	}

	// What the measured cycles saw of single layers is reported by
	// every run; the probes and the traced cycle only with trace.
	res.PerLayer = map[string]metricResult{}
	for _, m := range perLayer {
		if len(cycleValues(outs, m.name)) == 0 {
			continue // a probe or trace value, or a stage this graph lacks
		}
		if res.PerLayer[m.name], err = fold(m, outs); err != nil {
			return nil, err
		}
	}
	if trace {
		if err := res.traced(b, outs); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd["peak_rss_mb"] = metricResult{Value: rss, Unit: "MB", Agg: string(aggLast)}
	res.Correct = res.Failed == 0

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join("out", w.name+".result.json"), data, 0o644)
}

// cycleValues lists one metric's value in every cycle that has it.
func cycleValues(outs []*cycleOut, name string) []float64 {
	var xs []float64
	for _, o := range outs {
		if v, ok := o.v[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// fold makes a metric's run value from its cycle values.
func fold(m metricDef, outs []*cycleOut) (metricResult, error) {
	xs := cycleValues(outs, m.name)
	if m.agg == "" {
		m.agg = aggMedian
	}
	v, err := aggregate(m.agg, m.higher, xs)
	if err != nil {
		return metricResult{}, fmt.Errorf("metric %s: %w", m.name, err)
	}
	return metricResult{
		Value: v, Unit: m.unit, Agg: string(m.agg), Cycles: xs, Spread: spread(xs),
		Samples: outs[0].n[m.name],
	}, nil
}

// sameResults is the cross-cycle guard: cycles are i.i.d., so every
// verified query must return exactly what it returned in the warm-up
// cycle, which was checked against NaiveQueryExpr.
func sameResults(warm, out *cycleOut) error {
	for q, want := range warm.verify {
		if !slices.Equal(want, out.verify[q]) {
			return fmt.Errorf("guard: query %q returned %d records, the verified warm-up cycle %d, or they differ", q, len(out.verify[q]), len(want))
		}
	}
	return nil
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// print writes the human-readable report and, as the last line, the
// driver's JSON object: the end-to-end metrics, or with trace the
// per-layer ones.
func (r *result) print(f *os.File, trace bool) {
	fmt.Fprintf(f, "workload %s seed %d: %d cycles, GOMAXPROCS %d on %d CPUs (%s), %s, data root %s (%s), disturbed=%v\n",
		r.Env.Workload, r.Env.Seed, r.Env.Cycles, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.CPUModel, r.Env.GoVersion,
		r.Env.DataRoot, r.Env.DataRootFS, r.Env.Disturbed)
	table := func(title string, ms map[string]metricResult) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(f, "%s:\n", title)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(f, "  %-44s %16.4f %-6s", n, m.Value, m.Unit)
			if len(m.Cycles) > 1 {
				fmt.Fprintf(f, " %-16s cycle spread %5.1f%%", m.Agg, 100*m.Spread)
			}
			if m.Samples > 0 {
				fmt.Fprintf(f, " n=%d/cycle", m.Samples)
			}
			fmt.Fprintln(f)
		}
	}
	table("end-to-end", r.EndToEnd)
	table("per-layer", r.PerLayer)
	for _, b := range r.Budgets {
		fmt.Fprint(f, b.String())
	}
	fmt.Fprintf(f, "ops_attempted %d ops_failed %d\n", r.Attempted, r.Failed)

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	metrics := make(map[string]mv, len(src))
	for n, m := range src {
		metrics[n] = mv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintln(f, string(line))
}

// child runs one workload in a process of its own (set-up time and peak
// RSS are per workload), checks its last line, and returns every metric
// the run reported.
func child(w workload, seed int64, seconds, trace int, echo bool) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if echo {
		os.Stdout.Write(outBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return nil, fmt.Errorf("workload %s: last line: %w", w.name, err)
	}
	if !last.Correct || last.Failed > 0 {
		return nil, fmt.Errorf("workload %s: incorrect or failed operations", w.name)
	}
	// The last line carries one list of metrics, the result file both.
	data, err := os.ReadFile(filepath.Join("out", w.name+".result.json"))
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("workload %s: result file: %w", w.name, err)
	}
	vals := map[string]float64{}
	for _, ms := range []map[string]metricResult{res.EndToEnd, res.PerLayer} {
		for n, m := range ms {
			vals[n] = m.Value
		}
	}
	return vals, nil
}

// runAll runs the three workloads one after another.
func runAll(seed int64, seconds, trace int) int {
	code := 0
	for _, w := range workloads {
		if _, err := child(w, seed, seconds, trace, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	return code
}

// contractJSON renders BENCHMARK.json, the driver's view of the tables
// in workload.go and metrics.go.
func contractJSON(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	list := func(defs []metricDef, bounded bool) []metric {
		out := make([]metric, len(defs))
		for i, m := range defs {
			out[i] = metric{Name: m.name, Unit: m.unit, Better: "lower"}
			if m.higher {
				out[i].Better = "higher"
			}
			if bounded {
				out[i].Bound = &defs[i].bound
			}
		}
		return out
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command: []string{"sh", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		EndToEnd: list(endToEnd, true), PerLayer: list(perLayer, false),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n')
}
