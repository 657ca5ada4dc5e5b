package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/metadata"
)

// bench is everything set-up produces: the inputs and pipelines every
// cycle of one run shares.
type bench struct {
	w    workload
	seed int64
	q    queries

	// fs is under every repository the run writes: fsyncs are counted,
	// not executed (fs.go).
	fs       *countFS
	dataRoot string // parent of every cycle's fresh root
	histDir  string // pristine history, copied into each cycle
	pipe     *core.Pipeline
	live     *core.Pipeline
	clf      *emotion.Classifier
	persons  int

	ingest, follow, qload [][]metadata.Record
	allExpr, coldExpr     metadata.Expr
}

// setUp builds a bench: trains the classifier (pixel workloads), builds
// both pipelines, writes the pristine history and generates the load.
func setUp(w workload, seed int64, dataRoot string) (*bench, error) {
	b := &bench{w: w, seed: seed, q: w.queries(seed), fs: &countFS{}, dataRoot: dataRoot, histDir: filepath.Join(dataRoot, "history")}
	var err error
	if w.mode == core.PixelVision {
		if b.clf, err = trainClassifier(); err != nil {
			return nil, err
		}
	}
	if b.pipe, err = w.pipeline(seed, b.clf, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	if b.live, err = w.pipeline(seed, b.clf, 1); err != nil {
		return nil, err
	}
	b.persons = len(b.pipe.Context().Participants)
	if err := os.RemoveAll(b.histDir); err != nil {
		return nil, err
	}
	if err := w.writeHistory(b.histDir, seed, b.fs); err != nil {
		return nil, err
	}
	r := newRNG(seed, 3)
	for i := 0; i < w.ingestBatches; i++ {
		b.ingest = append(b.ingest, w.loadBatch(r, streamIngest, i, w.ingestBatch, -1))
	}
	for i := 0; i < w.followBatches; i++ {
		b.follow = append(b.follow, w.loadBatch(r, streamFollow, i, w.followBatch, i))
	}
	// Enough query-phase batches for a phase four times its nominal
	// length; the appender stops with the queries, not with the supply.
	nominal := time.Duration(w.pointQueries+w.scanQueries) * 4 * time.Millisecond
	for i := 0; i < int(4*nominal/w.queryAppendEvery)+8; i++ {
		b.qload = append(b.qload, w.loadBatch(r, streamQuery, i, w.queryAppendBatch, -1))
	}
	if b.allExpr, err = metadata.Parse("frame >= 0 OR frame < 0"); err != nil {
		return nil, err
	}
	if b.coldExpr, err = metadata.Parse(b.q.cold); err != nil {
		return nil, err
	}
	return b, nil
}
