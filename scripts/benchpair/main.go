// Command benchpair summarises the paired benchmark runs that
// scripts/benchpair.sh leaves in a directory: for every workload and
// metric, both sides' medians and quartiles, the median delta, the
// pairs the change won, and a verdict by the choosing-metrics guide.
//
// Verdicts (end-to-end metrics, which BENCHMARK.json gives a bound):
//
//	gain        the change won at least 9/10 of the decided pairs (ties
//	            count for neither side) and the medians are apart, in
//	            the better direction, by more than the distance between
//	            the parent's quartiles (§8)
//	identical   in every pair both sides read the same value (the exact
//	            counts, which depend on the seed alone)
//	unresolved  the parent's own quartile distance exceeds the metric's
//	            bound, so "no worse than the bound" cannot be told from
//	            noise — unless every run of the change beat every run of
//	            the parent (§6.5)
//	REGRESSION  the change's median is worse than the parent's by more
//	            than the bound
//	within      none of the above: no worse than the bound
//
// Per-layer metrics have no bound; they get the numbers and "gain" or
// nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the summary needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the part of benchmark/out/<workload>.result.json read.
type runResult struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]runValue `json:"end_to_end"`
	PerLayer  map[string]runValue `json:"per_layer"`
}

type runValue struct {
	Value float64 `json:"value"`
}

func (r *runResult) value(name string) (float64, bool) {
	if v, ok := r.EndToEnd[name]; ok {
		return v.Value, true
	}
	v, ok := r.PerLayer[name]
	return v.Value, ok
}

// summary is one metric of one workload over all its pairs.
type summary struct {
	Unit             string
	Parent, Change   float64    // medians
	ParentQ, ChangeQ [2]float64 // first and third quartiles
	DeltaPct         float64
	Wins, Ties       int
	Pairs            int
	Verdict          string
}

// jsonLine is the summary's entry in the BENCH_<n>.json file: one line,
// six significant digits.
func (s summary) jsonLine() string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
	return fmt.Sprintf(`{"unit": %q, "parent": %s, "change": %s, "parent_q": [%s, %s], "change_q": [%s, %s], "delta_pct": %.1f, "wins": %d, "ties": %d, "pairs": %d, "verdict": %q}`,
		s.Unit, g(s.Parent), g(s.Change), g(s.ParentQ[0]), g(s.ParentQ[1]), g(s.ChangeQ[0]), g(s.ChangeQ[1]),
		s.DeltaPct, s.Wins, s.Ties, s.Pairs, s.Verdict)
}

func main() {
	var (
		contractPath = flag.String("contract", "BENCHMARK.json", "the benchmark contract: workloads, metrics, bounds")
		workloads    = flag.Bool("workloads", false, "print the contract's workload names and exit")
		runs         = flag.String("runs", "", "directory of <workload>.<seed>.<parent|change>.json results")
		ref          = flag.String("ref", "", "the parent commit, for the record")
		jsonOut      = flag.String("json", "", "also write the summaries to this file")
	)
	flag.Parse()
	var c contract
	if err := readJSON(*contractPath, &c); err != nil {
		fatal(err)
	}
	if *workloads {
		for _, w := range c.Workloads {
			fmt.Println(w.Name)
		}
		return
	}
	if *runs == "" {
		fatal(fmt.Errorf("benchpair: -runs is required"))
	}

	var file strings.Builder // the -json file, a line per metric
	var seeds []string
	for _, w := range c.Workloads {
		pairs, names, err := loadPairs(*runs, w.Name)
		if err != nil {
			fatal(err)
		}
		if len(pairs) == 0 {
			continue
		}
		seeds = names
		var failedP, failedC, attemptedP, attemptedC int
		for _, p := range pairs {
			failedP, attemptedP = failedP+p[0].Failed, attemptedP+p[0].Attempted
			failedC, attemptedC = failedC+p[1].Failed, attemptedC+p[1].Attempted
		}
		fmt.Printf("\n== %s: %d pairs (seeds %s); ops failed/attempted: parent %d/%d, change %d/%d\n",
			w.Name, len(pairs), strings.Join(names, ","), failedP, attemptedP, failedC, attemptedC)
		fmt.Printf("%-40s %-6s %14s %27s %14s %27s %8s %6s  %s\n",
			"metric", "unit", "parent median", "[q1, q3]", "change median", "[q1, q3]", "delta", "wins", "verdict")
		fmt.Fprintf(&file, ",\n  %q: {", w.Name)
		sep := ""
		for i, m := range append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...) {
			s, ok := summarise(pairs, m, i < len(c.EndToEnd))
			if !ok {
				continue
			}
			fmt.Fprintf(&file, "%s\n    %q: %s", sep, m.Name, s.jsonLine())
			sep = ","
			fmt.Printf("%-40s %-6s %14.6g %27s %14.6g %27s %+7.1f%% %3d/%-2d  %s\n", m.Name, m.Unit,
				s.Parent, fmt.Sprintf("[%.6g, %.6g]", s.ParentQ[0], s.ParentQ[1]),
				s.Change, fmt.Sprintf("[%.6g, %.6g]", s.ChangeQ[0], s.ChangeQ[1]),
				s.DeltaPct, s.Wins, s.Pairs-s.Ties, s.Verdict)
		}
		file.WriteString("\n  }")
	}
	if *jsonOut != "" {
		data := fmt.Sprintf("{\n  \"parent\": %q,\n  \"seeds\": %q%s\n}\n", *ref, strings.Join(seeds, ","), file.String())
		if err := os.WriteFile(*jsonOut, []byte(data), 0o644); err != nil {
			fatal(err)
		}
	}
}

// loadPairs reads every seed of one workload for which both sides ran,
// in seed order: pairs[i] = {parent, change}.
func loadPairs(dir, workload string) (pairs [][2]*runResult, seeds []string, err error) {
	parents, err := filepath.Glob(filepath.Join(dir, workload+".*.parent.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(parents, func(i, j int) bool { // numeric seed order
		return len(parents[i]) < len(parents[j]) || (len(parents[i]) == len(parents[j]) && parents[i] < parents[j])
	})
	for _, pp := range parents {
		var pair [2]*runResult
		for side, path := range []string{pp, strings.TrimSuffix(pp, ".parent.json") + ".change.json"} {
			pair[side] = new(runResult)
			if err := readJSON(path, pair[side]); err != nil {
				if os.IsNotExist(err) {
					pair[side] = nil
					break
				}
				return nil, nil, err
			}
		}
		if pair[0] == nil || pair[1] == nil {
			continue
		}
		pairs = append(pairs, pair)
		seed := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(pp), workload+"."), ".parent.json")
		seeds = append(seeds, seed)
	}
	return pairs, seeds, nil
}

func summarise(pairs [][2]*runResult, m metricDef, bounded bool) (summary, bool) {
	var parent, change []float64
	s := summary{Unit: m.Unit}
	higher := m.Better == "higher"
	better := func(a, b float64) bool { return a != b && (a > b) == higher }
	for _, p := range pairs {
		pv, ok1 := p[0].value(m.Name)
		cv, ok2 := p[1].value(m.Name)
		if !ok1 || !ok2 {
			continue
		}
		parent, change = append(parent, pv), append(change, cv)
		switch {
		case pv == cv:
			s.Ties++
		case better(cv, pv):
			s.Wins++
		}
	}
	if len(parent) == 0 {
		return s, false
	}
	s.Pairs = len(parent)
	sort.Float64s(parent)
	sort.Float64s(change)
	s.Parent, s.Change = quantile(parent, 0.5), quantile(change, 0.5)
	s.ParentQ = [2]float64{quantile(parent, 0.25), quantile(parent, 0.75)}
	s.ChangeQ = [2]float64{quantile(change, 0.25), quantile(change, 0.75)}
	if s.Parent != 0 {
		s.DeltaPct = 100 * (s.Change - s.Parent) / math.Abs(s.Parent)
	}

	iqr := s.ParentQ[1] - s.ParentQ[0]
	decided := s.Pairs - s.Ties
	// Every run of the change better than every run of the parent.
	clear := better(change[0], parent[len(parent)-1])
	if !higher {
		clear = better(change[len(change)-1], parent[0])
	}
	switch {
	case s.Ties == s.Pairs:
		s.Verdict = "identical"
	case decided > 0 && 10*s.Wins >= 9*decided && better(s.Change, s.Parent) && math.Abs(s.Change-s.Parent) > iqr:
		s.Verdict = "gain"
	case !bounded:
	case !clear && iqr > m.Bound*math.Abs(s.Parent):
		s.Verdict = "unresolved"
	case better(s.Parent, s.Change) && math.Abs(s.Change-s.Parent) > m.Bound*math.Abs(s.Parent):
		s.Verdict = "REGRESSION"
	default:
		s.Verdict = "within"
	}
	return s, true
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
