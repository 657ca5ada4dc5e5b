package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/dievent/client"
	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/metadata"
)

// phaseTimeout bounds every phase: a hang fails the run instead of
// outliving the driver's patience.
const phaseTimeout = 60 * time.Second

// streamStride separates the frame ranges of the record streams a cycle
// appends past the history.
const streamStride = 1_000_000

// cycleOut is what one cycle measured.
type cycleOut struct {
	// v holds the cycle's value of every metric it can produce, n the
	// sample count behind each percentile.
	v map[string]float64
	n map[string]int
	// phases is the wall time of each phase (seconds), for the report.
	phases map[string]float64
	// attempted and failed count operations: appends, queries, expected
	// follower deliveries, opens.
	attempted, failed int
	// verify holds the untimed verification round: query text → result.
	verify map[string][]recKey
	// spans is set on the traced cycle.
	spans []span
}

// recKey is the part of a record a result comparison looks at. Time is
// left out: the wire carries microseconds.
type recKey struct {
	ID            uint64
	Kind          metadata.Kind
	Frame         int
	Person, Other int
	Label         string
	Value         float64
}

func keyOf(r metadata.Record) recKey {
	return recKey{r.ID, r.Kind, r.Frame, r.Person, r.Other, r.Label, r.Value}
}

func keysOf(recs []metadata.Record) []recKey {
	out := make([]recKey, len(recs))
	for i, r := range recs {
		out[i] = keyOf(r)
	}
	return out
}

// cycle is one i.i.d. repetition: fresh root, fresh server, every phase
// once.
type cycle struct {
	b    *bench
	root string
	node *node
	tr   *tracer // nil on measured cycles
	out  *cycleOut
	// naive makes the cold phase check every verified query against
	// NaiveQueryExpr on the drained tenant store (warm-up cycle).
	naive bool
	// acked counts records the service acknowledged.
	acked int
	gc    struct {
		cycles  uint32
		pauseNS uint64
	}
}

// runCycle runs every phase once in a fresh root and removes it.
func (b *bench) runCycle(idx int, tr *tracer, naive bool) (*cycleOut, error) {
	c := &cycle{
		b: b, tr: tr, naive: naive,
		root: filepath.Join(b.dataRoot, fmt.Sprintf("cycle-%d", idx)),
		out: &cycleOut{
			v: map[string]float64{}, n: map[string]int{}, phases: map[string]float64{},
			verify: map[string][]recKey{},
		},
	}
	if err := os.RemoveAll(c.root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.root)
	c.out.v["host.calib_cpu_ms"] = calibrate()

	steps := []struct {
		name string
		run  func() error
	}{
		{"open", c.phaseOpen}, {"pipe", c.phasePipe}, {"live", c.phaseLive}, {"ingest", c.phaseIngest},
		{"follow", c.phaseFollow}, {"query", c.phaseQuery}, {"cold", c.phaseCold},
	}
	for _, s := range steps {
		if err := c.phase(s.name, s.run); err != nil {
			if c.node != nil {
				c.node.stop()
			}
			return nil, fmt.Errorf("phase %s: %w", s.name, err)
		}
	}
	c.out.v["gc.cycles"] = float64(c.gc.cycles)
	c.out.v["gc.pause_total_ms"] = float64(c.gc.pauseNS) / 1e6
	c.out.spans = tr.finished()
	return c.out, nil
}

// phase runs one phase between untimed collections, so no phase pays
// for its predecessor's garbage, and books the collector's work inside
// the phase.
func (c *cycle) phase(name string, run func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := run()
	c.out.phases[name] = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	c.gc.cycles += after.NumGC - before.NumGC
	c.gc.pauseNS += after.PauseTotalNs - before.PauseTotalNs
	return err
}

// calibrate times a fixed 10M-step integer loop — a reading of how fast
// the host is right now that no product code can move. The loop runs
// four independent chains: a single dependent xorshift chain leaves the
// core's ports idle and reads the same (±3 %) in the box's slow spells,
// which slow port-hungry code by a third.
func calibrate() float64 {
	t0 := time.Now()
	a, b, x, d := uint64(1), uint64(2), uint64(0x9E3779B97F4A7C15), uint64(4)
	for i := 0; i < 10_000_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		x ^= x << 13
		x ^= x >> 7
		d += uint64(i) ^ a
	}
	elapsed := time.Since(t0)
	if a+b+x+d == 0 { // never: keeps the loop observable
		return 0
	}
	return ms(elapsed)
}

// latencyWindow is how many consecutive latency samples make one
// window: long enough for a median, short enough (25–300 ms of phase) to
// fall inside one of the box's fast spells.
const latencyWindow = 25

// ingestWindow is the closed-loop ingest window, in batches: 34 batches
// of 500 records are 1.1 MB of segment data, so every window holds at
// least one segment seal (sidecar, manifest swap, roll) and a slower
// seal lowers the gated number.
const ingestWindow = 34

// burstQueries is how many point queries the query phase sends back to
// back, and queryWindow the throughput window over them, in queries
// (15–30 ms of phase, one to three of the concurrent appender's batches).
const (
	burstQueries = 400
	queryWindow  = 40
)

// latency books a paced or think-timed phase's latency samples (ms):
// the median of the cycle's best window as p50, the cycle's p90 (every
// such phase has the ≥100 samples that leave ten beyond it), and the
// whole phase's median under the phase's own name for the per-layer
// report.
func (c *cycle) latency(metric, phase string, samples []float64) {
	c.out.v[metric+"_p50_ms"] = bestChunkMedian(samples, latencyWindow)
	c.out.v[metric+"_p90_ms"] = percentile(samples, 90)
	c.out.n[metric+"_p50_ms"], c.out.n[metric+"_p90_ms"] = len(samples), len(samples)
	c.out.v[phase+".cycle_p50_ms"] = percentile(samples, 50)
}

func (c *cycle) op(err error) error {
	c.out.attempted++
	if err != nil {
		c.out.failed++
	}
	return err
}

// --- phase 1: open ---

// phaseOpen copies the pristine history into the fresh root, starts the
// server, and forces the tenant open with a first query.
func (c *cycle) phaseOpen() error {
	if err := copyDir(c.b.histDir, filepath.Join(c.root, tenant)); err != nil {
		return err
	}
	var err error
	if c.node, err = startNode(c.root, c.tr, c.b.fs); err != nil {
		return err
	}
	cl, err := c.node.client()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	t0 := time.Now()
	_, err = cl.Query(ctx, c.b.q.rare, client.QueryOpts{Limit: 1})
	c.out.v["service.tenant_open_ms"] = ms(time.Since(t0))
	return c.op(err)
}

// copyDir copies the regular files of a repository directory (the lock
// lease, if any, belongs to whoever wrote it).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// --- phase 2: pipe ---

// phasePipe is the closed-loop pipeline: an unpaced cycled live bounded
// stream with every worker into a fresh durable local repository.
func (c *cycle) phasePipe() error {
	w := c.b.w
	dir := filepath.Join(c.root, "local")
	repo, err := metadata.Open(dir, metadata.WithFS(c.b.fs), metadata.WithSegmentSize(segmentSize))
	if err != nil {
		return err
	}
	defer repo.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	frameAt := make([]time.Duration, 1, w.pipeFrames+1) // [0] = the start
	res, err := c.b.pipe.RunStream(core.StreamOptions{
		Frames: w.pipeFrames, Cycle: true, Live: true, Bounded: true, Repo: repo,
		Monitor: func(int) { frameAt = append(frameAt, time.Since(t0)) },
	})
	if err == nil {
		err = repo.Sync()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if c.op(err) != nil {
		return err
	}
	frames := float64(w.pipeFrames)
	c.out.v["frames_per_s"] = bestWindowRate(frameAt, w.pipeWindow)
	c.out.v["pipe.cycle_frames_per_s"] = frames / elapsed.Seconds()
	c.out.v["core.alloc_bytes_per_frame"] = float64(after.TotalAlloc-before.TotalAlloc) / frames
	c.out.v["core.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / frames
	for _, st := range res.Timings {
		c.out.v["core.stage."+st.Name+".us_per_frame"] = us(st.Duration) / frames
	}

	st, err := repo.Stats()
	if err != nil {
		return err
	}
	c.out.v["core.records_per_frame"] = float64(st.Records) / frames
	c.out.v["disk_bytes_per_record"] = float64(st.DiskBytes) / float64(st.Records)
	// Yield: emotion observations stored per person and frame. On the
	// pixel path this is useful ÷ attempted — a face that was not
	// detected, tracked, recognised and classified stores nothing.
	rows, err := repo.Aggregate("kind = 'observation'", metadata.AggCount, metadata.GroupByLabel)
	if err != nil {
		return err
	}
	obs := 0
	for _, row := range rows {
		if _, perr := emotion.ParseLabel(row.Key); perr == nil {
			obs += row.N
		}
	}
	yield := float64(obs) / (frames * float64(c.b.persons))
	c.out.v["core.obs_yield"] = yield
	if yield < w.minYield {
		return fmt.Errorf("guard: core.obs_yield %.3f below %.2f: the pipeline lost its observations", yield, w.minYield)
	}
	return nil
}

// --- phase 4: ingest ---

// phaseIngest is closed-loop service ingest: one client, a fixed count
// of fixed-size batches, each sent when the previous one is
// acknowledged.
func (c *cycle) phaseIngest() error {
	cl, err := c.node.client()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	c.node.meter.take()
	c.b.fs.take()
	rtts := make([]float64, 0, len(c.b.ingest))
	doneAt := make([]time.Duration, 1, len(c.b.ingest)+1) // [0] = the start
	records := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, batch := range c.b.ingest {
		s := time.Now()
		if err := c.op(cl.Append(ctx, batch)); err != nil {
			return err
		}
		now := time.Now()
		rtts = append(rtts, ms(now.Sub(s)))
		doneAt = append(doneAt, now.Sub(t0))
		records += len(batch)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	c.acked += records
	handled, _ := c.node.meter.take()
	c.out.v["append_records_per_s"] = float64(len(c.b.ingest[0])) * bestWindowRate(doneAt, ingestWindow)
	c.out.v["ingest.cycle_records_per_s"] = float64(records) / elapsed.Seconds()
	c.out.v["client.append_rtt_ms"] = median(rtts)
	c.out.v["service.handle_append_ms"] = medianMS(handled)
	c.out.v["ingest.alloc_bytes_per_record"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
	syncs, written := c.b.fs.take()
	c.out.v["ingest.fsyncs_per_1k_records"] = 1000 * float64(syncs) / float64(records)
	c.out.v["ingest.written_bytes_per_record"] = float64(written) / float64(records)
	return nil
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// --- phase 5: follow ---

// phaseFollow is open-loop append → follower latency: batches on a
// fixed schedule, one follower subscribed to the batches' marker
// records, each batch timed from when it was due.
func (c *cycle) phaseFollow() error {
	w := c.b.w
	n := len(c.b.follow)
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	app, err := c.node.client()
	if err != nil {
		return err
	}
	fol, err := c.node.client()
	if err != nil {
		return err
	}
	from := w.historyFrames() + streamFollow*streamStride
	fs, err := fol.Follow(ctx, fmt.Sprintf("label = '%s' AND frame >= %d", labelMarker, from))
	if c.op(err) != nil {
		return err
	}
	defer fs.Close()

	recv := make([]time.Time, n)
	folDone := make(chan error, 1)
	go func() {
		var last uint64
		for k := 0; k < n; k++ {
			rec, err := fs.Next()
			recv[k] = time.Now()
			switch {
			case err != nil:
				folDone <- err
				return
			case rec.Value != float64(k) || rec.ID <= last:
				folDone <- fmt.Errorf("guard: follower got marker %v (id %d) where marker %d was due", rec.Value, rec.ID, k)
				return
			}
			last = rec.ID
		}
		folDone <- nil
	}()

	p := newPacer(time.Now().Add(2*time.Millisecond), w.followRate, n)
	for i, batch := range c.b.follow {
		p.wait(i)
		if err := c.op(app.Append(ctx, batch)); err != nil {
			cancel()
			<-folDone
			return err
		}
		c.acked += len(batch)
	}
	if err := <-folDone; err != nil {
		return err
	}
	lat := make([]float64, n)
	for i := range lat {
		c.out.attempted++
		lat[i] = ms(recv[i].Sub(p.due(i)))
	}
	c.latency("append_to_follow", "follow", lat)
	c.out.v["follow.late_ms_per_batch"] = meanMS(p.late)
	return nil
}

// --- phase 6: query ---

// phaseQuery is reads beside writes on one tenant: one goroutine
// appends a small batch on a fixed schedule while one client runs
// closed-loop queries — point queries with 1 ms think time, a burst of
// point queries back to back, then scan queries with think time. An
// untimed round then runs every distinct query once more, with the
// writer stopped, for the correctness guards.
func (c *cycle) phaseQuery() error {
	w := c.b.w
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	app, err := c.node.client()
	if err != nil {
		return err
	}
	qc, err := c.node.client()
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	type appended struct {
		records, attempted, failed int
	}
	appDone := make(chan appended, 1)
	go func() {
		var a appended
		p := newPacer(time.Now(), float64(time.Second)/float64(w.queryAppendEvery), len(c.b.qload))
		for i, batch := range c.b.qload {
			select {
			case <-stop:
				appDone <- a
				return
			case <-time.After(time.Until(p.due(i))):
			}
			a.attempted++
			if err := app.Append(ctx, batch); err != nil {
				a.failed++
				continue
			}
			a.records += len(batch)
		}
		appDone <- a
	}()

	c.node.meter.take()
	timed := func(q string, limit int) (float64, error) {
		req := c.tr.request()
		id := c.tr.reserve("client.query", 0, req)
		t0 := time.Now()
		_, err := qc.Query(withSpan(ctx, req, id), q, client.QueryOpts{Limit: limit})
		t1 := time.Now()
		c.tr.finish(id, t0, t1)
		time.Sleep(time.Millisecond)
		return ms(t1.Sub(t0)), c.op(err)
	}
	point := make([]float64, 0, w.pointQueries)
	var qerr error
	for j := 0; j < w.pointQueries && qerr == nil; j++ {
		var d float64
		d, qerr = timed(c.b.q.pointAt(j), pointLimit)
		point = append(point, d)
	}
	_, handledPoint := c.node.meter.take()
	// The burst: the same point queries back to back, each sent when
	// the previous one has answered, still beside the appender.
	burstAt := make([]time.Duration, 1, burstQueries+1) // [0] = the start
	b0 := time.Now()
	for j := 0; j < burstQueries && qerr == nil; j++ {
		_, err := qc.Query(ctx, c.b.q.pointAt(j), client.QueryOpts{Limit: pointLimit})
		qerr = c.op(err)
		burstAt = append(burstAt, time.Since(b0))
	}
	scan := make([]float64, 0, w.scanQueries)
	for j := 0; j < w.scanQueries && qerr == nil; j++ {
		var d float64
		d, qerr = timed(c.b.q.scan, scanLimit)
		scan = append(scan, d)
	}
	close(stop)
	a := <-appDone
	c.out.attempted += a.attempted
	c.out.failed += a.failed
	c.acked += a.records
	if qerr != nil {
		return qerr
	}
	c.latency("query", "query", point)
	c.out.v["point_queries_per_s"] = bestWindowRate(burstAt, queryWindow)
	c.out.v["query.cycle_queries_per_s"] = burstQueries / burstAt[burstQueries].Seconds()
	c.out.v["scan_query_ms"] = bestChunkMedian(scan, 3)
	c.out.n["scan_query_ms"] = len(scan)
	c.out.v["client.query_rtt_ms"] = median(point)
	c.out.v["service.handle_query_ms"] = medianMS(handledPoint)

	for _, q := range c.b.q.distinct() {
		recs, err := qc.Query(ctx, q.text, client.QueryOpts{Limit: q.limit})
		if c.op(err) != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("guard: query %q returns nothing: it times an empty result", q.text)
		}
		c.out.verify[q.text] = keysOf(recs)
	}
	return nil
}

// --- phase 7: cold ---

// phaseCold drains the server and reads the tenant's store cold:
// pushdown opens answering one query each, then full opens. The guards
// that need the drained store run here, untimed.
func (c *cycle) phaseCold() error {
	w := c.b.w
	drain, err := c.node.stop()
	refused := c.node.meter.refused
	c.node = nil
	if c.op(err) != nil {
		return fmt.Errorf("drain: %w", err)
	}
	c.out.v["service.drain_ms"] = ms(drain)
	c.out.v["service.refused"] = float64(refused)
	dir := filepath.Join(c.root, tenant)

	var cold, opens []float64
	var pushed []recKey
	var skipped, segments int
	var allocBytes uint64
	for i := 0; i < w.coldQueries; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		repo, err := metadata.Open(dir, metadata.WithReadOnly(), metadata.WithOpenFilter(c.b.coldExpr))
		if c.op(err) != nil {
			return err
		}
		t1 := time.Now()
		it, err := repo.QueryExprIter(c.b.coldExpr, metadata.QueryOpts{})
		var recs []metadata.Record
		if err == nil {
			recs, err = it.Collect()
		}
		t2 := time.Now()
		st, serr := repo.Stats()
		t2b := time.Now()
		cerr := repo.Close()
		t3 := time.Now()
		runtime.ReadMemStats(&after)
		if err := errors.Join(err, serr, cerr); err != nil {
			c.out.failed++
			return err
		}
		// Stats is the benchmark's own bookkeeping, not the user's query.
		cold = append(cold, ms(t3.Sub(t0)-t2b.Sub(t2)))
		opens = append(opens, ms(t1.Sub(t0)))
		allocBytes = after.TotalAlloc - before.TotalAlloc
		pushed, skipped, segments = keysOf(recs), st.SkippedSegments, len(st.Segments)
		if c.tr != nil {
			req := c.tr.request()
			root := c.tr.add("cold.query", 0, req, t0, t3)
			c.tr.add("metadata.open", root, req, t0, t1)
			c.tr.add("metadata.query", root, req, t1, t2)
			c.tr.add("metadata.close", root, req, t2b, t3)
		}
	}
	c.out.v["cold_query_ms"] = percentile(cold, 25)
	c.out.n["cold_query_ms"] = len(cold)
	c.out.v["metadata.open_pushdown_ms"] = median(opens)
	c.out.v["metadata.coldquery_alloc_bytes"] = float64(allocBytes)
	skipRatio := 0.0
	if segments > 0 {
		skipRatio = float64(skipped) / float64(segments)
	}
	c.out.v["metadata.segments_skipped_ratio"] = skipRatio
	if skipRatio < w.minSkip {
		return fmt.Errorf("guard: cold open skipped %d of %d segments, below %.0f%%", skipped, segments, 100*w.minSkip)
	}

	var full *metadata.Repository
	best := 0.0
	for i := 0; i < w.fullOpens; i++ {
		if full != nil {
			full.Close()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		full, err = metadata.Open(dir, metadata.WithReadOnly())
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if c.op(err) != nil {
			return err
		}
		n := float64(full.Len())
		if rate := n / d.Seconds(); rate > best {
			best = rate
			c.out.v["metadata.open_full_ns_per_record"] = float64(d.Nanoseconds()) / n
			c.out.v["metadata.open_allocs_per_record"] = float64(after.Mallocs-before.Mallocs) / n
		}
	}
	defer full.Close()
	c.out.v["full_open_records_per_s"] = best

	// Guards on the drained store.
	if want := w.historyRecords + c.acked; full.Len() != want {
		return fmt.Errorf("guard: tenant holds %d records, history + acknowledged is %d", full.Len(), want)
	}
	it, err := full.QueryExprIter(c.b.coldExpr, metadata.QueryOpts{})
	if err != nil {
		return err
	}
	recs, err := it.Collect()
	if err != nil {
		return err
	}
	if !slices.Equal(pushed, keysOf(recs)) {
		return fmt.Errorf("guard: pushdown open returned %d records, full open %d, or they differ", len(pushed), len(recs))
	}
	if !c.naive {
		return nil
	}
	for _, q := range c.b.q.distinct() {
		expr, err := metadata.Parse(q.text)
		if err != nil {
			return err
		}
		want, err := full.NaiveQueryExpr(expr)
		if err != nil {
			return err
		}
		if len(want) > q.limit {
			want = want[:q.limit]
		}
		if !slices.Equal(c.out.verify[q.text], keysOf(want)) {
			return fmt.Errorf("guard: query %q over the service differs from NaiveQueryExpr on the same store (%d vs %d records)",
				q.text, len(c.out.verify[q.text]), len(want))
		}
	}
	return nil
}
