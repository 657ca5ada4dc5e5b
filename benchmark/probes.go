package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/camera"
	"repro/internal/emotion"
	"repro/internal/face"
	"repro/internal/gaze"
	"repro/internal/img"
	"repro/internal/layers"
	"repro/internal/lbp"
	"repro/internal/metadata"
	"repro/internal/nn"
	"repro/internal/scene"
	"repro/internal/service"
	"repro/internal/video"
)

// probeBest times fn, which performs ops operations per call, over a
// few rounds and returns the best round's time per operation: a layer's
// cost with as little of the box's noise as a short probe can manage.
func probeBest(rounds, ops int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0) / time.Duration(ops); d < best {
			best = d
		}
	}
	return best, nil
}

const probeRounds = 5

// runProbes measures single layers by calling their exported functions
// on inputs sampled from the workload's own scenario, history and load.
// The vision probes run on every workload, so a change to them has a
// number on the workloads it should not move.
func (b *bench) runProbes() (map[string]float64, error) {
	v := map[string]float64{}
	if err := b.probeVision(v); err != nil {
		return nil, fmt.Errorf("vision probes: %w", err)
	}
	if err := b.probeGaze(v); err != nil {
		return nil, fmt.Errorf("gaze probes: %w", err)
	}
	if err := b.probeStore(v); err != nil {
		return nil, fmt.Errorf("store probes: %w", err)
	}
	return v, nil
}

func (b *bench) probeVision(v map[string]float64) error {
	sc, err := b.w.scenario(b.seed)
	if err != nil {
		return err
	}
	sim, err := scene.NewSimulator(sc)
	if err != nil {
		return err
	}
	rig, err := camera.PrototypeRig(sc.RoomW, sc.RoomD)
	if err != nil {
		return err
	}
	clf := b.clf
	if clf == nil {
		if clf, err = trainClassifier(); err != nil {
			return err
		}
	}
	// Eight frames spread over the scenario.
	var states []scene.FrameState
	for i := 0; i < 8; i++ {
		states = append(states, sim.FrameState(i*sim.NumFrames()/8))
	}
	rend := video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{})
	frame := rend.AcquireFrame()
	defer rend.ReleaseFrame(frame)
	d, err := probeBest(probeRounds, len(states), func() error {
		for _, fs := range states {
			frame = rend.RenderStateInto(fs, frame)
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["video.render_us"] = us(d)

	var in *img.Integral
	var sq *img.IntegralSq
	d, _ = probeBest(probeRounds, 8, func() error {
		for i := 0; i < 8; i++ {
			in, sq = img.BuildIntegrals(frame, in, sq)
		}
		return nil
	})
	v["img.integrals_us"] = us(d)
	var pyr *img.Pyramid
	d, _ = probeBest(probeRounds, 8, func() error {
		for i := 0; i < 8; i++ {
			pyr = img.BuildPyramid(frame, in, pyr)
		}
		return nil
	})
	v["img.pyramid_us"] = us(d)

	det, err := face.NewDetector(face.DetectorOptions{})
	if err != nil {
		return err
	}
	var dets []face.Detection
	d, _ = probeBest(probeRounds, 4, func() error {
		for i := 0; i < 4; i++ {
			dets = det.DetectIntegrals(frame, in, sq)
		}
		return nil
	})
	v["face.detect_us"] = us(d)
	v["face.detect_windows_per_s"] = float64(det.GridWindows(frame.W, frame.H)) / d.Seconds()

	d, _ = probeBest(probeRounds, 200, func() error {
		tr := face.NewTracker(face.TrackerOptions{})
		for i := 0; i < 200; i++ {
			tr.Step(dets)
		}
		return nil
	})
	v["face.track_step_us"] = us(d)

	// Face crops as the classify stage takes them; a view without a
	// detectable face falls back to generated crops so the per-face
	// probes always have input.
	rec := face.NewRecognizer()
	for _, p := range sim.Persons() {
		for _, l := range []emotion.Label{emotion.Neutral, emotion.Happy, emotion.Sad} {
			if err := rec.Enroll(p.Name, emotion.GenerateFace(l, uint64(p.ID)*7919+1, p.FaceTone)); err != nil {
				return err
			}
		}
	}
	var crops []*img.Gray
	for _, dt := range dets {
		crops = append(crops, frame.CropClamped(dt.Box))
	}
	for i := len(crops); i < 4; i++ {
		crops = append(crops, emotion.GenerateFace(emotion.Happy, uint64(i)+3, 180))
	}
	var ids []string
	var sims []float64
	d, _ = probeBest(probeRounds, 50*len(crops), func() error {
		for i := 0; i < 50; i++ {
			ids, sims = rec.IdentifyBatch(crops, ids, sims)
		}
		return nil
	})
	v["face.identify_us_per_face"] = us(d)

	face64 := emotion.GenerateFace(emotion.Surprise, 5, 180)
	var desc []float64
	var codes *img.Gray
	d, err = probeBest(probeRounds, 50, func() error {
		for i := 0; i < 50; i++ {
			var err error
			if desc, err = lbp.GridDescriptorInto(face64, emotion.DefaultGrid, emotion.DefaultGrid, desc, codes); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["lbp.descriptor_us"] = us(d)

	var labels []emotion.Label
	var confs []float64
	d, err = probeBest(probeRounds, 20*len(crops), func() error {
		for i := 0; i < 20; i++ {
			var err error
			if labels, confs, err = clf.ClassifyBatch(crops, labels, confs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["emotion.classify_us_per_face"] = us(d)

	feat, err := clf.Features(face64)
	if err != nil {
		return err
	}
	net, err := nn.New(nn.Config{Sizes: []int{len(feat), 48, emotion.NumLabels}, Seed: 1})
	if err != nil {
		return err
	}
	xs := make([][]float64, 16)
	for i := range xs {
		xs[i] = feat
	}
	var cls []int
	var conf []float64
	d, err = probeBest(probeRounds, 50*len(xs), func() error {
		for i := 0; i < 50; i++ {
			var err error
			if cls, conf, err = net.ClassifyBatch(xs, cls, conf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["nn.classify_us_per_sample"] = us(d)
	return nil
}

func (b *bench) probeGaze(v map[string]float64) error {
	sc, err := b.w.scenario(b.seed)
	if err != nil {
		return err
	}
	sim, err := scene.NewSimulator(sc)
	if err != nil {
		return err
	}
	rig, err := camera.PrototypeRig(sc.RoomW, sc.RoomD)
	if err != nil {
		return err
	}
	const n = 200
	states := make([]scene.FrameState, n)
	for i := range states {
		states[i] = sim.FrameState(i * sim.NumFrames() / n)
	}
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: b.seed})
	obs := make([][]gaze.Observation, n)
	d, _ := probeBest(probeRounds, n, func() error {
		for i, fs := range states {
			obs[i] = est.Observe(fs, rig)
		}
		return nil
	})
	v["gaze.observe_us"] = us(d)

	ctx := b.pipe.Context()
	ids := ctx.IDs()
	det := gaze.NewDetector()
	mats := make([]gaze.Matrix, n)
	d, err = probeBest(probeRounds, n, func() error {
		for i := range obs {
			var err error
			if mats[i], err = det.LookAt(obs[i], rig, ids); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["gaze.lookat_us"] = us(d)

	emotions := make(map[int]layers.EmotionObs, len(ids))
	for _, id := range ids {
		emotions[id] = layers.EmotionObs{Label: emotion.Happy, Confidence: 0.9}
	}
	d, err = probeBest(probeRounds, n, func() error {
		an, err := layers.NewAnalyzer(ctx, layers.Options{})
		if err != nil {
			return err
		}
		for i, fs := range states {
			if err := an.Push(layers.FrameInput{Index: i, Time: fs.Time, LookAt: mats[i], Emotions: emotions}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["layers.push_us"] = us(d)
	return nil
}

func (b *bench) probeStore(v map[string]float64) error {
	// Local append: the ingest phase's batches into a durable
	// repository without the service around it.
	dir := filepath.Join(b.dataRoot, "probe-append")
	records := 0
	for _, batch := range b.ingest {
		records += len(batch)
	}
	var repo *metadata.Repository
	d, err := probeBest(3, records, func() error {
		if repo != nil {
			repo.Close()
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var err error
		if repo, err = metadata.Open(dir, metadata.WithFS(b.fs), metadata.WithSegmentSize(segmentSize)); err != nil {
			return err
		}
		for _, batch := range b.ingest {
			if err := repo.AppendBatch(batch); err != nil {
				return err
			}
		}
		return nil
	})
	if repo != nil {
		defer repo.Close()
	}
	if err != nil {
		return err
	}
	v["metadata.append_ns_per_record"] = float64(d.Nanoseconds())

	// Compaction of that repository: every sealed segment is rewritten.
	st, err := repo.Stats()
	if err != nil {
		return err
	}
	var sealed int64
	for _, seg := range st.Segments {
		if seg.Sealed {
			sealed += seg.Bytes
		}
	}
	t0 := time.Now()
	if err := repo.Compact(); err != nil {
		return err
	}
	v["metadata.compact_ms"] = ms(time.Since(t0))
	v["metadata.compact_bytes_rewritten"] = float64(sealed)

	// Tail delivery: one append to the cursor handing the record over,
	// without a goroutine switch between them.
	mem := metadata.NewMem()
	defer mem.Close()
	cur, err := mem.Tail(b.allExpr, metadata.TailOpts{})
	if err != nil {
		return err
	}
	defer cur.Close()
	one := b.ingest[0][:1]
	d, err = probeBest(probeRounds, 2000, func() error {
		for i := 0; i < 2000; i++ {
			if err := mem.AppendBatch(one); err != nil {
				return err
			}
			if _, err := cur.Next(nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["metadata.tail_deliver_us"] = us(d)

	// Wire: the client's encode and the handler's decode of one batch.
	batch := b.ingest[0]
	var body []byte
	d, err = probeBest(probeRounds, 20*len(batch), func() error {
		for i := 0; i < 20; i++ {
			wires := make([]service.WireRecord, len(batch))
			for j, rec := range batch {
				wires[j] = service.ToWire(rec)
			}
			var err error
			if body, err = json.Marshal(wires); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["service.wire_encode_ns_per_record"] = float64(d.Nanoseconds())
	d, err = probeBest(probeRounds, 20*len(batch), func() error {
		for i := 0; i < 20; i++ {
			var wires []service.WireRecord
			if err := json.Unmarshal(body, &wires); err != nil {
				return err
			}
			for _, wr := range wires {
				if _, err := service.FromWire(wr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["service.wire_decode_ns_per_record"] = float64(d.Nanoseconds())

	// Parse and the executor without HTTP, on the pristine history.
	texts := b.q.distinct()
	exprs := make([]metadata.Expr, len(texts))
	d, err = probeBest(probeRounds, 20*len(texts), func() error {
		for i := 0; i < 20; i++ {
			for j, q := range texts {
				var err error
				if exprs[j], err = metadata.Parse(q.text); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["metadata.parse_us"] = us(d)

	hist, err := metadata.Open(b.histDir, metadata.WithReadOnly())
	if err != nil {
		return err
	}
	defer hist.Close()
	collect := func(expr metadata.Expr, limit int) error {
		it, err := hist.QueryExprIter(expr, metadata.QueryOpts{Limit: limit})
		if err != nil {
			return err
		}
		_, err = it.Collect()
		return err
	}
	point := exprs[2:] // distinct() lists the rare and scan queries first
	d, err = probeBest(probeRounds, len(point)+1, func() error {
		if err := collect(exprs[0], pointLimit); err != nil {
			return err
		}
		for _, e := range point {
			if err := collect(e, pointLimit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["metadata.query_point_us"] = us(d)
	d, err = probeBest(probeRounds, 3, func() error {
		for i := 0; i < 3; i++ {
			if err := collect(exprs[1], scanLimit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["metadata.query_scan_ms"] = ms(d)
	return nil
}
