package main

// metricDef declares one metric: its unit, direction, how a run value
// is made from cycle values, and — for end-to-end metrics — the share
// of the parent's median by which it may worsen before a change is a
// regression. BENCHMARK.json repeats name, unit, direction and bound;
// TestBenchmarkJSONMatchesTable keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool        // higher is better
	agg    aggregation // per-layer: "" = median over cycles
	bound  float64     // end-to-end only
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", agg: aggLast, bound: 0.25},
	{name: "frames_per_s", unit: "1/s", higher: true, agg: aggBest, bound: 0.25},
	{name: "frame_to_follow_p50_ms", unit: "ms", agg: aggBest, bound: 0.25},
	{name: "append_records_per_s", unit: "1/s", higher: true, agg: aggBest, bound: 0.25},
	{name: "append_to_follow_p50_ms", unit: "ms", agg: aggBest, bound: 0.25},
	{name: "append_to_follow_p90_ms", unit: "ms", agg: aggBest, bound: 0.25},
	{name: "point_queries_per_s", unit: "1/s", higher: true, agg: aggBest, bound: 0.25},
	{name: "full_open_records_per_s", unit: "1/s", higher: true, agg: aggBest, bound: 0.25},
	{name: "disk_bytes_per_record", unit: "B", agg: aggExact, bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", agg: aggLast, bound: 0.25},
}

// perLayer are the metrics of single layers (layer = module name). They
// have no bound: they explain a moved end-to-end number, they are never
// gated. README "Layers" says which end-to-end metric each should move
// on which workload. A stage a workload's graph does not contain reads 0.
var perLayer = []metricDef{
	// Vision probes → frames_per_s, frame_to_follow_* on pixel_table.
	{name: "video.render_us", unit: "us"},
	{name: "img.integrals_us", unit: "us"},
	{name: "img.pyramid_us", unit: "us"},
	{name: "face.detect_us", unit: "us"},
	{name: "face.detect_windows_per_s", unit: "1/s", higher: true},
	{name: "face.track_step_us", unit: "us"},
	{name: "face.identify_us_per_face", unit: "us"},
	{name: "lbp.descriptor_us", unit: "us"},
	{name: "emotion.classify_us_per_face", unit: "us"},
	{name: "nn.classify_us_per_sample", unit: "us"},
	{name: "live.vision_floor_ms", unit: "ms"},
	// Gaze, layers and stage dispatch → frames_per_s on geo_banquet.
	{name: "gaze.observe_us", unit: "us"},
	{name: "gaze.lookat_us", unit: "us"},
	{name: "layers.push_us", unit: "us"},
	{name: "core.stage.feature-extraction.us_per_frame", unit: "us"},
	{name: "core.stage.render.us_per_frame", unit: "us"},
	{name: "core.stage.detect.us_per_frame", unit: "us"},
	{name: "core.stage.track.us_per_frame", unit: "us"},
	{name: "core.stage.classify.us_per_frame", unit: "us"},
	{name: "core.stage.px-gaze.us_per_frame", unit: "us"},
	{name: "core.stage.geo-gaze.us_per_frame", unit: "us"},
	{name: "core.stage.geo-emotion.us_per_frame", unit: "us"},
	{name: "core.stage.collect-gaze.us_per_frame", unit: "us"},
	{name: "core.stage.fuse-emotions.us_per_frame", unit: "us"},
	{name: "core.stage.gaze-analysis.us_per_frame", unit: "us"},
	{name: "core.stage.multilayer.us_per_frame", unit: "us"},
	{name: "core.stage.observations.us_per_frame", unit: "us"},
	{name: "core.stage.attention-span.us_per_frame", unit: "us"},
	{name: "core.stage.dining-phase.us_per_frame", unit: "us"},
	{name: "core.stage.live-summary.us_per_frame", unit: "us"},
	{name: "core.stage.metadata.us_per_frame", unit: "us"},
	{name: "core.stage.summarize.us_per_frame", unit: "us"},
	{name: "core.records_per_frame", unit: "count", higher: true, agg: aggExact},
	{name: "core.obs_yield", unit: "ratio", higher: true},
	{name: "core.alloc_bytes_per_frame", unit: "B"},
	{name: "core.allocs_per_frame", unit: "count"},
	// Ingest path → append_records_per_s, append_to_follow_*, and
	// frame_to_follow_* where the forwarder's share exceeds the pipeline's.
	{name: "metadata.append_ns_per_record", unit: "ns"},
	{name: "metadata.tail_deliver_us", unit: "us"},
	{name: "service.wire_encode_ns_per_record", unit: "ns"},
	{name: "service.wire_decode_ns_per_record", unit: "ns"},
	{name: "service.handle_append_ms", unit: "ms"},
	{name: "client.append_rtt_ms", unit: "ms"},
	{name: "ingest.alloc_bytes_per_record", unit: "B"},
	// What the tenant's store asked of the filesystem during ingest
	// (fs.go): counts, identical in every cycle.
	{name: "ingest.fsyncs_per_1k_records", unit: "count", agg: aggExact},
	{name: "ingest.written_bytes_per_record", unit: "B", agg: aggExact},
	// Query path → query_p50_ms, query_p90_ms, scan_query_p50_ms.
	{name: "metadata.parse_us", unit: "us"},
	{name: "metadata.query_point_us", unit: "us"},
	{name: "metadata.query_scan_ms", unit: "ms"},
	{name: "service.handle_query_ms", unit: "ms"},
	{name: "client.query_rtt_ms", unit: "ms"},
	// Demoted from end-to-end (the issue's rule for a timing that cannot
	// hold its bound): over eight sets of ten runs their quartile spread
	// reached 27 % (query_p50_ms), 22 % (query_p90_ms), 23 %
	// (scan_query_ms), 29 % (cold_query_ms) and 30 %
	// (frame_to_follow_p90_ms on pixel_table) of the median, at or above
	// the largest bound the contract allows (README "A/A table").
	{name: "query_p50_ms", unit: "ms", agg: aggBest},
	{name: "query_p90_ms", unit: "ms", agg: aggBest},
	{name: "scan_query_ms", unit: "ms", agg: aggBest},
	{name: "cold_query_ms", unit: "ms", agg: aggBest},
	{name: "frame_to_follow_p90_ms", unit: "ms", agg: aggBest},
	// Open and cold path → cold_query_p50_ms, full_open_records_per_s.
	{name: "service.tenant_open_ms", unit: "ms"},
	{name: "metadata.open_full_ns_per_record", unit: "ns"},
	{name: "metadata.open_allocs_per_record", unit: "count"},
	{name: "metadata.open_pushdown_ms", unit: "ms"},
	{name: "metadata.segments_skipped_ratio", unit: "ratio", higher: true},
	{name: "metadata.coldquery_alloc_bytes", unit: "B"},
	{name: "metadata.compact_ms", unit: "ms"},
	{name: "metadata.compact_bytes_rewritten", unit: "B"},
	// Diagnostics.
	// Whole-phase readings: what a cycle measured over an entire phase,
	// slow spells, segment seals and end-of-run passes included.
	{name: "pipe.cycle_frames_per_s", unit: "1/s", higher: true},
	{name: "ingest.cycle_records_per_s", unit: "1/s", higher: true},
	{name: "live.cycle_p50_ms", unit: "ms"},
	{name: "follow.cycle_p50_ms", unit: "ms"},
	{name: "query.cycle_p50_ms", unit: "ms"},
	{name: "query.cycle_queries_per_s", unit: "1/s", higher: true},
	{name: "service.refused", unit: "count"},
	{name: "service.drain_ms", unit: "ms"},
	{name: "live.late_ms_per_frame", unit: "ms"},
	{name: "follow.late_ms_per_batch", unit: "ms"},
	{name: "gc.cycles", unit: "count"},
	{name: "gc.pause_total_ms", unit: "ms"},
	{name: "host.calib_cpu_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.live_frame_gap_pct", unit: "%"},
	{name: "trace.client_query_gap_pct", unit: "%"},
}
