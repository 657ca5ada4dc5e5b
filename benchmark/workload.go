package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/gaze"
	"repro/internal/metadata"
	"repro/internal/scene"
	"repro/internal/vfs"
)

// segmentSize is the segment threshold of every repository the
// benchmark creates (history, tenant, local pipeline store).
const segmentSize = 1 << 20

// Vocabulary of the generated history and load. The rare label occurs
// in bursts so most sealed segments hold none of it and a cold open can
// skip them by their bloom filters.
const (
	labelRare    = "alert-negative-spike"
	labelContact = "eye-contact"
	labelMarker  = "bench-marker"
)

var loadLabels = [...]string{"happy", "neutral", "sad"}

// workload is one set of inputs: which pipeline runs, how large the
// stored history is, and how long each phase of a cycle lasts. Every
// size is fixed so cycles and runs do identical work.
type workload struct {
	name string
	why  string

	// Pipeline shape.
	mode         core.VisionMode
	dinner       *scene.DinnerOptions // nil = the 4-person prototype scenario
	stages       []string
	incremental  bool
	pixelCameras int
	detectEvery  int

	// historyRecords is the size of the pristine tenant history;
	// historyPersons how many participants its records cycle over.
	historyRecords int
	historyPersons int

	pipeFrames int     // closed-loop RunStream length
	pipeWindow int     // frames per throughput window, ≈50 ms of work and ≥ 1 MiB of records
	liveFrames int     // paced RunStream length
	liveFPS    float64 // its frame rate

	ingestBatches, ingestBatch int     // closed-loop appends
	followBatches, followBatch int     // paced appends with one follower
	followRate                 float64 // batches per second

	pointQueries, scanQueries int           // closed-loop queries, 1 ms think time
	queryAppendEvery          time.Duration // concurrent ingest beside them
	queryAppendBatch          int

	coldQueries int // pushdown open + query + close
	fullOpens   int // full read-only opens

	// minYield is the lowest acceptable core.obs_yield and minSkip the
	// lowest acceptable share of segments a cold open must skip; both
	// are guards, 0 = not required.
	minYield, minSkip float64
}

var workloads = []workload{
	{
		name: "pixel_table",
		why:  "pixel vision on a 4-person table, small store: detection and inference carry the frame, storage and service are idle",
		mode: core.PixelVision, pixelCameras: 2, detectEvery: 1,
		historyRecords: 50_000, historyPersons: 4,
		pipeFrames: 320, pipeWindow: 20, liveFrames: 100, liveFPS: 80,
		ingestBatches: 150, ingestBatch: 500,
		followBatches: 120, followBatch: 64, followRate: 300,
		pointQueries: 300, scanQueries: 40, queryAppendEvery: 10 * time.Millisecond, queryAppendBatch: 64,
		coldQueries: 12, fullOpens: 8,
		minYield: 0.4,
	},
	{
		name: "geo_banquet",
		why:  "geometric vision on an 8-person dinner with online stages: gaze, layers, stage dispatch and append carry the frame, no pixels",
		mode: core.GeometricVision, dinner: &scene.DinnerOptions{Persons: 8, Frames: 1500, Enjoyment: 0.6},
		stages:         []string{core.StageAttention, core.StageDiningPhase, core.StageLiveSummary},
		incremental:    true,
		historyRecords: 250_000, historyPersons: 8,
		pipeFrames: 14_000, pipeWindow: 1400, liveFrames: 200, liveFPS: 250,
		ingestBatches: 150, ingestBatch: 500,
		followBatches: 120, followBatch: 64, followRate: 300,
		pointQueries: 300, scanQueries: 25, queryAppendEvery: 10 * time.Millisecond, queryAppendBatch: 64,
		coldQueries: 12, fullOpens: 4,
	},
	{
		name:           "archive_serve",
		why:            "1M-record history in 64+ sealed segments behind a light pipeline: plan, exec, codec, segment stats and wire carry open, query and cold",
		mode:           core.GeometricVision,
		historyRecords: 1_000_000, historyPersons: 16,
		pipeFrames: 18_000, pipeWindow: 4400, liveFrames: 120, liveFPS: 150,
		ingestBatches: 150, ingestBatch: 500,
		followBatches: 100, followBatch: 64, followRate: 300,
		pointQueries: 240, scanQueries: 20, queryAppendEvery: 10 * time.Millisecond, queryAppendBatch: 64,
		coldQueries: 6, fullOpens: 2,
		minSkip: 0.5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is a xorshift64* stream: the benchmark's only source of
// randomness, so a seed fixes every generated input.
type rng uint64

func newRNG(seed int64, stream uint64) *rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03)
	if r == 0 {
		r = 0x2545F4914F6CDD1D
	}
	for i := 0; i < 4; i++ {
		r.next()
	}
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// scenario builds the workload's scripted event for a seed.
func (w workload) scenario(seed int64) (scene.Scenario, error) {
	if w.dinner != nil {
		opt := *w.dinner
		opt.Seed = seed
		return scene.DinnerScenario(opt)
	}
	sc := scene.PrototypeScenario()
	sc.Seed = seed
	return sc, nil
}

// pipeline builds the workload's pipeline. workers = 1 is the paced
// live pipeline: with more workers the engine extracts frame i+1 while
// the monitor still sleeps on frame i, and the paced latency would not
// contain the vision work (README "Pacing rule").
func (w workload) pipeline(seed int64, clf *emotion.Classifier, workers int) (*core.Pipeline, error) {
	sc, err := w.scenario(seed)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{
		Scenario:     sc,
		Mode:         w.mode,
		Gaze:         gaze.EstimatorOptions{Seed: seed},
		Classifier:   clf,
		DetectEvery:  w.detectEvery,
		PixelCameras: w.pixelCameras,
		Workers:      workers,
		Stages:       w.stages,
		Incremental:  w.incremental,
	})
}

// trainClassifier trains the 48-hidden emotion classifier with fixed
// seeds: the model is part of the program under test, not of the
// seeded input.
func trainClassifier() (*emotion.Classifier, error) {
	clf, err := emotion.NewClassifier(48, 1)
	if err != nil {
		return nil, err
	}
	if _, err := clf.Train(emotion.GenerateDataset(10, 1), emotion.TrainOptions{Epochs: 5, Seed: 2, LearningRate: 0.01}); err != nil {
		return nil, err
	}
	return clf, nil
}

// contactEvery is the cadence of the history's eye-contact events: one
// record in 63. It is coprime to every historyPersons, so the events
// fall on every participant in turn.
const contactEvery = 63

// historyRecord is record i of the generated history: persons cycle
// fastest, a frame holds one record per person, one record in
// contactEvery is an eye-contact event, and the rare alert label comes
// in bursts of 16 inside one 8192-record stretch out of every 32.
func (w workload) historyRecord(i int, r *rng) metadata.Record {
	frame := i / w.historyPersons
	rec := metadata.Record{
		Kind: metadata.KindObservation, Frame: frame, FrameEnd: frame + 1,
		Time:   time.Duration(frame) * 40 * time.Millisecond,
		Person: i % w.historyPersons, Other: -1,
		Label: loadLabels[r.intn(len(loadLabels))],
		Value: float64(r.intn(1000)) / 1000,
	}
	switch {
	case (i/8192)%32 == 3 && i%512 == 17:
		rec.Kind, rec.Label = metadata.KindEvent, labelRare
	case i%contactEvery == contactEvery-1:
		rec.Kind, rec.Label = metadata.KindEvent, labelContact
		rec.Other = (rec.Person + 1 + r.intn(w.historyPersons-1)) % w.historyPersons
		rec.FrameEnd = frame + 12
	}
	return rec
}

// historyFrames is the first frame index past the history; everything
// appended during a cycle continues from there, like a stream that
// goes on after the archive was written.
func (w workload) historyFrames() int {
	return (w.historyRecords + w.historyPersons - 1) / w.historyPersons
}

// writeHistory writes the pristine history straight to disk. SyncNone:
// it is bulk-loaded once and copied into every cycle's fresh root.
func (w workload) writeHistory(dir string, seed int64, fsys vfs.FS) error {
	repo, err := metadata.Open(dir, metadata.WithFS(fsys), metadata.WithSyncPolicy(metadata.SyncNone), metadata.WithSegmentSize(segmentSize))
	if err != nil {
		return err
	}
	r := newRNG(seed, 1)
	batch := make([]metadata.Record, 0, 8192)
	for i := 0; i < w.historyRecords; i++ {
		batch = append(batch, w.historyRecord(i, r))
		if len(batch) == cap(batch) || i == w.historyRecords-1 {
			if err := repo.AppendBatch(batch); err != nil {
				repo.Close()
				return fmt.Errorf("writing history: %w", err)
			}
			batch = batch[:0]
		}
	}
	return repo.Close()
}

// loadBatch generates one append batch of the ingest, follow or query
// phase: plain emotion observations on frames past the history. stream
// keeps the phases' records distinct; marker ≥ 0 makes the last record
// the batch's marker, carrying that number.
func (w workload) loadBatch(r *rng, stream, batchNo, size, marker int) []metadata.Record {
	recs := make([]metadata.Record, size)
	base := w.historyFrames() + stream*streamStride + batchNo*((size+w.historyPersons-1)/w.historyPersons)
	for i := range recs {
		frame := base + i/w.historyPersons
		recs[i] = metadata.Record{
			Kind: metadata.KindObservation, Frame: frame, FrameEnd: frame + 1,
			Time:   time.Duration(frame) * 40 * time.Millisecond,
			Person: i % w.historyPersons, Other: -1,
			Label: loadLabels[r.intn(len(loadLabels))],
			Value: float64(r.intn(1000)) / 1000,
		}
	}
	if marker >= 0 {
		recs[size-1].Label = labelMarker
		recs[size-1].Value = float64(marker)
	}
	return recs
}

// Frame-index streams of the records a cycle appends past the history.
const (
	streamLive = iota + 1
	streamIngest
	streamFollow
	streamQuery
)

// queries are the distinct query texts of one run, fixed by the seed.
type queries struct {
	// Point-query shapes: the rare label; label ∩ person ∩ frame ≥; a
	// 100-frame window.
	rare    string
	contact []string
	window  []string
	// scan matches a sixth of the store; cold is the pushdown query.
	scan string
	cold string
}

const (
	pointLimit = 100
	scanLimit  = 50
)

func (w workload) queries(seed int64) queries {
	r := newRNG(seed, 2)
	q := queries{
		rare: fmt.Sprintf("label = '%s'", labelRare),
		scan: "label = 'happy' AND value >= 0.5",
		cold: fmt.Sprintf("label = '%s'", labelRare),
	}
	frames := w.historyFrames()
	for i := 0; i < 10; i++ {
		q.contact = append(q.contact, fmt.Sprintf("label = '%s' AND person = %d AND frame >= %d",
			labelContact, 1+r.intn(w.historyPersons), r.intn(frames/2)))
		from := r.intn(frames - 100)
		q.window = append(q.window, fmt.Sprintf("frame >= %d AND frame < %d", from, from+100))
	}
	return q
}

// pointAt is the j-th point query of a phase: the three shapes in turn.
func (q queries) pointAt(j int) string {
	switch j % 3 {
	case 0:
		return q.rare
	case 1:
		return q.contact[(j/3)%len(q.contact)]
	}
	return q.window[(j/3)%len(q.window)]
}

type limitedQuery struct {
	text  string
	limit int
}

// distinct lists every query text a cycle sends, with its limit.
func (q queries) distinct() []limitedQuery {
	out := []limitedQuery{{q.rare, pointLimit}, {q.scan, scanLimit}}
	for _, t := range q.contact {
		out = append(out, limitedQuery{t, pointLimit})
	}
	for _, t := range q.window {
		out = append(out, limitedQuery{t, pointLimit})
	}
	return out
}
