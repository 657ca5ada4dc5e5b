package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
)

// maxBudgetGap is how far a traced root's parts may differ from the
// root before the run fails: the spans no longer nest, so the budget
// they print cannot be trusted.
const maxBudgetGap = 0.05

// traced completes the per-layer metrics: to what the measured cycles
// saw of single layers it adds the probes and one extra cycle with
// spans on. End-to-end metrics never come from that cycle; its distance
// from the untraced cycles is the tracing overhead.
func (r *result) traced(b *bench, outs []*cycleOut) error {
	vals, err := b.runProbes()
	if err != nil {
		return err
	}

	tr := newTracer()
	out, err := b.runCycle(len(outs)+1, tr, false)
	if err != nil {
		return fmt.Errorf("traced cycle: %w", err)
	}
	r.Attempted += out.attempted
	r.Failed += out.failed
	for _, root := range []string{"live.frame", "client.query", "cold.query"} {
		bud := selfBudget(out.spans, root)
		if bud.Roots == 0 {
			return fmt.Errorf("traced cycle recorded no %s span", root)
		}
		if bud.gap() > maxBudgetGap {
			return fmt.Errorf("trace: the parts of %s differ from the whole by %.1f%%:\n%s", root, 100*bud.gap(), bud)
		}
		r.Budgets = append(r.Budgets, bud)
	}
	vals["trace.live_frame_gap_pct"] = 100 * r.Budgets[0].gap()
	vals["trace.client_query_gap_pct"] = 100 * r.Budgets[1].gap()
	var traced, untraced float64
	for _, name := range []string{"frame_to_follow_p50_ms", "query_p50_ms", "cold_query_ms"} {
		traced += out.v[name]
		untraced += median(cycleValues(outs, name))
	}
	vals["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	if err := writeTrace(filepath.Join("out", b.w.name+".trace.json"), r.Env, out.spans, r.Budgets); err != nil {
		return err
	}

	// One frame's vision work on every analysed camera, from the
	// probes. The paced latency must contain it: if it reads lower, the
	// live phase is extracting ahead of its clock (README "Pacing rule").
	cams := float64(max(b.w.pixelCameras, 1))
	floor := cams * (vals["video.render_us"] + vals["img.integrals_us"] + vals["face.detect_us"]) / 1e3
	vals["live.vision_floor_ms"] = floor
	if p50 := r.EndToEnd["frame_to_follow_p50_ms"].Value; b.w.mode == core.PixelVision && p50 < floor {
		return fmt.Errorf("guard: frame_to_follow_p50_ms %.2f is below one frame's vision work %.2f ms: the paced phase is not measuring vision", p50, floor)
	}

	// Every per-layer name gets a value: a stage the workload's graph
	// does not contain reads 0.
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.name]; !ok {
			r.PerLayer[m.name] = metricResult{Value: vals[m.name], Unit: m.unit}
		}
	}
	return nil
}
