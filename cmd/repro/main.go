// Command repro regenerates every figure and table of the DiEvent paper,
// plus the quantitative experiments T-A…T-F this reproduction adds
// (DESIGN.md §3), printing paper-expected versus measured values.
//
// Usage:
//
//	repro              # run everything
//	repro -fig 7       # one artefact: 2, 3, 4, 5, 7, 8, 9, emotion,
//	                   # ec-sweep, baseline, throughput, metadata, stages
//
// Stage-graph controls (artefact "stages"):
//
//	repro -fig stages                         # per-stage timing table
//	repro -fig stages -stages attention-span  # plug extra analyzers in
//	repro -fig stages -rederive geo-emotion   # incremental re-run demo:
//	                                          # force one stage stale and
//	                                          # re-derive only its chain
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/camera"
	"repro/internal/core"
	"repro/internal/emotion"
	"repro/internal/face"
	"repro/internal/gaze"
	"repro/internal/geom"
	"repro/internal/hmm"
	"repro/internal/img"
	"repro/internal/layers"
	"repro/internal/metadata"
	"repro/internal/parsing"
	"repro/internal/scene"
	"repro/internal/video"
)

func main() {
	fig := flag.String("fig", "", "artefact to regenerate (default: all)")
	stages := flag.String("stages", "", "comma-separated extra analyzer stages to plug into the graph (e.g. attention-span)")
	rederive := flag.String("rederive", "", "stage to force stale for the incremental re-run demo (artefact \"stages\")")
	flag.Parse()

	runners := map[string]func() error{
		"2":          fig2Rig,
		"3":          fig3Parsing,
		"4":          fig4Matrix,
		"5":          fig5Overall,
		"7":          func() error { return figLookAtMap(7, 250) },
		"8":          func() error { return figLookAtMap(8, 375) },
		"9":          fig9Summary,
		"emotion":    tableEmotion,
		"ec-sweep":   tableECSweep,
		"baseline":   tableBaseline,
		"throughput": tableThroughput,
		"metadata":   tableMetadata,
		"speaker":    tableSpeaker,
		"stages":     func() error { return tableStages(*stages, *rederive) },
	}
	order := []string{"2", "3", "4", "5", "7", "8", "9",
		"emotion", "ec-sweep", "baseline", "speaker", "throughput", "metadata", "stages"}

	if *fig != "" {
		run, ok := runners[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown artefact %q; choose one of %s\n",
				*fig, strings.Join(order, ", "))
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range order {
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "artefact %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// fig2Rig validates the Fig. 2 acquisition schema.
func fig2Rig() error {
	header("Fig. 2 — acquisition platform (2 cameras, 2.5 m, −15° pitch, 25 fps, 640×480)")
	rig, err := camera.PaperRig(4)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-24s %-14s %-10s\n", "camera", "position (m)", "pitch (deg)", "sees table")
	for _, c := range rig.Cameras {
		fwd := c.Pose.Forward()
		pitch := -asinDeg(fwd.Z)
		fmt.Printf("%-8s %-24v %-14.1f %-10v\n",
			c.Name, c.Pose.Position, pitch, c.Sees(geom.V3(0, 0, 0.75)))
	}
	fmt.Printf("frame rate: %.0f fps   resolution: %dx%d\n",
		rig.FPS, rig.Cameras[0].In.W, rig.Cameras[0].In.H)
	fmt.Println("paper: cameras at 2.5 m, −15° pitch, facing each other — matched")
	return nil
}

// fig3Parsing reproduces the Fig. 3 hierarchy: a composed multi-shot
// video decomposed into scenes, shots and key frames.
func fig3Parsing() error {
	header("Fig. 3 — video parsing hierarchy (video → scene → shot → key frame)")
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		return err
	}
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		return err
	}
	opt := video.RenderOptions{NoiseSigma: 1.5}
	mk := func(cam, from, to int) (video.Source, error) {
		return video.NewSourceRange(video.NewRenderer(sim, rig.Cameras[cam], opt), from, to)
	}
	s0, err := mk(0, 0, 200)
	if err != nil {
		return err
	}
	s1, err := mk(2, 0, 200)
	if err != nil {
		return err
	}
	s2, err := mk(1, 0, 120)
	if err != nil {
		return err
	}
	comp, err := video.Compose([]video.Source{s0, s1, s2}, []video.Shot{
		{Source: 0, Len: 60},
		{Source: 1, Len: 50, TransitionIn: video.Cut},
		{Source: 2, Len: 45, TransitionIn: video.Cut},
		{Source: 0, Len: 60, TransitionIn: video.Dissolve},
	})
	if err != nil {
		return err
	}
	p, err := parsing.Analyze(comp.Source())
	if err != nil {
		return err
	}
	m := parsing.Evaluate(p.Boundaries, comp.TrueBoundaries(), 6)
	fmt.Printf("true boundaries: %v (last is a %d-frame dissolve)\n",
		comp.TrueBoundaries(), video.DissolveLen)
	fmt.Printf("detected: ")
	for _, b := range p.Boundaries {
		kind := "cut"
		if b.Gradual {
			kind = "dissolve"
		}
		fmt.Printf("%d(%s) ", b.Frame, kind)
	}
	fmt.Println()
	fmt.Printf("precision %.2f  recall %.2f  F1 %.2f\n", m.Precision, m.Recall, m.F1)
	fmt.Printf("hierarchy: %d frames → %d scenes → %d shots, key frames ", p.NumFrames, len(p.Scenes), len(p.Shots))
	for _, s := range p.Shots {
		fmt.Printf("%d ", s.KeyFrame)
	}
	fmt.Println()
	return nil
}

// fig4Matrix prints a per-frame look-at matrix like Fig. 4.
func fig4Matrix() error {
	header("Fig. 4 — per-frame look-at (gaze) matrix, 4 persons")
	sim, rig, ids, err := protoSetup()
	if err != nil {
		return err
	}
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 20180416})
	det := gaze.NewDetector()
	fs := sim.FrameState(250)
	obs := est.Observe(fs, rig)
	m, err := det.LookAt(obs, rig, ids)
	if err != nil {
		return err
	}
	printMatrix(m)
	fmt.Printf("eye contact pairs (M[x][y]=M[y][x]=1): %v\n", pairNames(m.EyeContactPairs()))
	fmt.Println("paper: example matrix with one mutual pair — matched (P1↔P3)")
	return nil
}

// fig5Overall prints the Fig. 5 overall-emotion estimation for a happy
// and an unhappy dinner.
func fig5Overall() error {
	header("Fig. 5 — overall emotion estimation (OH = overall happiness %)")
	for _, enjoy := range []float64{0.9, 0.2} {
		sc, err := scene.DinnerScenario(scene.DinnerOptions{
			Persons: 4, Frames: 1500, Seed: 5, Enjoyment: enjoy,
		})
		if err != nil {
			return err
		}
		p, err := core.New(core.Config{Scenario: sc, Mode: core.GeometricVision,
			Gaze: gaze.EstimatorOptions{Seed: 5}})
		if err != nil {
			return err
		}
		res, err := p.Run()
		if err != nil {
			return err
		}
		fmt.Printf("dinner enjoyment=%.1f → mean OH %.1f%%  satisfaction %.1f/100  (%d EC events, %d alerts)\n",
			enjoy, res.Layers.MeanOH(), res.Layers.SatisfactionScore(),
			len(res.Layers.Events), len(res.Layers.Alerts))
		res.Repo.Close()
	}
	fmt.Println("paper: OH fuses per-person emotion with participant count — higher for the enjoyable dinner")
	return nil
}

// figLookAtMap reproduces Fig. 7 (t=10 s) or Fig. 8 (t=15 s): the look-at
// top-view map from four synchronized cameras.
func figLookAtMap(figNo, frame int) error {
	header(fmt.Sprintf("Fig. %d — look-at top-view map at t = %d s (frame %d, 4 cameras)",
		figNo, frame/25, frame))
	sim, rig, ids, err := protoSetup()
	if err != nil {
		return err
	}
	est := gaze.NewEstimator(gaze.EstimatorOptions{Seed: 20180416})
	det := gaze.NewDetector()
	// Temporal majority over ±5 frames, as the pipeline's smoothing
	// layer does.
	votes := gaze.NewSummary(ids)
	for f := frame - 5; f <= frame+5; f++ {
		obs := est.Observe(sim.FrameState(f), rig)
		m, err := det.LookAt(obs, rig, ids)
		if err != nil {
			return err
		}
		if err := votes.Add(m); err != nil {
			return err
		}
	}
	maj := gaze.NewMatrix(ids)
	for i := range ids {
		for j := range ids {
			if votes.Counts[i][j]*2 > votes.Frames {
				maj.M[i][j] = 1
			}
		}
	}
	printTopView(sim, maj)
	printMatrix(maj)
	fmt.Printf("directed edges: %v\n", pairNames(maj.Edges()))
	fmt.Printf("eye contact: %v\n", pairNames(maj.EyeContactPairs()))
	switch figNo {
	case 7:
		fmt.Println("paper: green↔yellow mutual; black→blue; blue→green")
	case 8:
		fmt.Println("paper: green, blue and black all look at yellow")
	}
	return nil
}

// fig9Summary reproduces the Fig. 9 look-at summary matrix over all 610
// frames, both ground truth and as measured by the pipeline.
func fig9Summary() error {
	header("Fig. 9 — look-at matrix summary over 610 frames")
	sim, _, _, err := protoSetup()
	if err != nil {
		return err
	}
	truth := sim.TrueSummary()
	fmt.Println("ground truth (scripted):")
	printIntMatrix(truth)

	p, err := core.New(core.Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     core.GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 20180416},
	})
	if err != nil {
		return err
	}
	res, err := p.Run()
	if err != nil {
		return err
	}
	defer res.Repo.Close()
	fmt.Println("measured, raw per-frame matrices (noisy estimators):")
	fmt.Print(res.Layers.Summary.String())
	fmt.Println("measured, temporally smoothed layer:")
	fmt.Print(res.Layers.SmoothedSummary.String())
	fmt.Printf("paper: P1→P3 = 357; zero diagonal; P1 column sum maximal (dominant)\n")
	fmt.Printf("truth: P1→P3 = %d   raw: %d   smoothed: %d   dominant = P%d\n",
		truth[0][2], res.Layers.Summary.Counts[0][2],
		res.Layers.SmoothedSummary.Counts[0][2], res.Layers.Summary.Dominant()+1)
	return nil
}

// tableEmotion reports the LBP+NN emotion classifier (experiment T-A).
func tableEmotion() error {
	header("T-A — emotion recognition (LBP features + neural network)")
	ds := emotion.GenerateDataset(40, 1)
	train, test := ds.Split(0.25)
	clf, err := emotion.NewClassifier(48, 2)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := clf.Train(train, emotion.TrainOptions{Epochs: 60, Seed: 3, LearningRate: 0.01}); err != nil {
		return err
	}
	fmt.Printf("trained on %d faces in %v\n", len(train.Faces), time.Since(start).Round(time.Millisecond))
	m, err := clf.Evaluate(test)
	if err != nil {
		return err
	}
	fmt.Printf("held-out accuracy: %.3f over %d faces\n", m.Accuracy(), len(test.Faces))
	fmt.Println(m)
	return nil
}

// tableECSweep ablates gaze noise and sphere radius (experiment T-B).
func tableECSweep() error {
	header("T-B — eye-contact detection vs gaze noise and head-sphere radius")
	sim, rig, ids, err := protoSetup()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s", "noise\\scale")
	scales := []float64{0.5, 1.0, 1.5, 2.0, 3.0}
	for _, s := range scales {
		fmt.Printf("%8.1f", s)
	}
	fmt.Println("   (per-frame edge F1 over 100 frames)")
	for _, noiseDeg := range []float64{0, 2, 4, 6, 8} {
		fmt.Printf("%-12.0f", noiseDeg)
		for _, scale := range scales {
			est := gaze.NewEstimator(gaze.EstimatorOptions{
				Seed: 1, GazeNoiseDeg: noiseDeg, PosNoise: 0.02,
			})
			if noiseDeg == 0 {
				est = gaze.NewEstimator(gaze.NoNoise())
			}
			det := &gaze.Detector{RadiusScale: scale}
			tp, fp, fn := 0, 0, 0
			for f := 100; f < 200; f++ {
				fs := sim.FrameState(f)
				obs := est.Observe(fs, rig)
				m, err := det.LookAt(obs, rig, ids)
				if err != nil {
					return err
				}
				truth := fs.TrueLookAt()
				for i := range ids {
					for j := range ids {
						switch {
						case m.M[i][j] == 1 && truth[i][j] == 1:
							tp++
						case m.M[i][j] == 1 && truth[i][j] == 0:
							fp++
						case m.M[i][j] == 0 && truth[i][j] == 1:
							fn++
						}
					}
				}
			}
			f1 := 0.0
			if 2*tp+fp+fn > 0 {
				f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
			}
			fmt.Printf("%8.3f", f1)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: F1 degrades with noise; mid radius scales dominate under noise")

	// Multi-camera fusion ablation: one observation from the best view
	// versus all visible cameras with confidence-based selection.
	fmt.Println("\ncamera-fusion ablation (noise 6°, scale 2.0, F1 over 100 frames):")
	for _, all := range []bool{false, true} {
		est := gaze.NewEstimator(gaze.EstimatorOptions{
			Seed: 1, GazeNoiseDeg: 6, PosNoise: 0.02, AllCameras: all,
		})
		det := gaze.NewDetector()
		tp, fp, fn := 0, 0, 0
		for f := 100; f < 200; f++ {
			fs := sim.FrameState(f)
			obs := est.Observe(fs, rig)
			m, err := det.LookAt(obs, rig, ids)
			if err != nil {
				return err
			}
			truth := fs.TrueLookAt()
			for i := range ids {
				for j := range ids {
					switch {
					case m.M[i][j] == 1 && truth[i][j] == 1:
						tp++
					case m.M[i][j] == 1 && truth[i][j] == 0:
						fp++
					case m.M[i][j] == 0 && truth[i][j] == 1:
						fn++
					}
				}
			}
		}
		f1 := 0.0
		if 2*tp+fp+fn > 0 {
			f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
		}
		mode := "best view only"
		if all {
			mode = "all cameras (confidence-fused)"
		}
		fmt.Printf("  %-32s F1 %.3f\n", mode, f1)
	}
	return nil
}

// tableBaseline compares DiEvent's multilayer segmentation against the
// Gao et al. HMM baseline (experiment T-E) under increasingly severe
// bursty gaze-layer failure — the paper's multilayer claim is that
// additional information sources "reduce the ratio of total failure".
func tableBaseline() error {
	header("T-E — dining-activity segmentation under gaze-layer failure: multilayer vs HMM baseline (Gao et al.)")
	fmt.Printf("%-26s %-20s %-20s\n", "gaze blackout (per-frame", "baseline (single-", "DiEvent multilayer")
	fmt.Printf("%-26s %-20s %-20s\n", "start prob, 6 s bursts)", "layer) accuracy", "accuracy")
	for _, burst := range []float64{0, 0.01, 0.02, 0.04} {
		bm := hmm.BurstModel{PerFrameStart: burst, Len: 150}
		var trainBase, trainMulti [][]int
		var labels [][]scene.Phase
		for seed := int64(0); seed < 10; seed++ {
			sc, err := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1500, Seed: 10 + seed, Enjoyment: 0.6})
			if err != nil {
				return err
			}
			sim, err := scene.NewSimulator(sc)
			if err != nil {
				return err
			}
			b, mu, ph := hmm.FeaturizeScenarioBursty(sim, bm, seed)
			trainBase = append(trainBase, b)
			trainMulti = append(trainMulti, mu)
			labels = append(labels, ph)
		}
		base, err := hmm.FitSupervised(trainBase, labels, hmm.DiningSymbols)
		if err != nil {
			return err
		}
		multi, err := hmm.FitSupervised(trainMulti, labels, hmm.MultilayerSymbols)
		if err != nil {
			return err
		}
		var sumB, sumM float64
		const trials = 8
		for seed := int64(100); seed < 100+trials; seed++ {
			sc, err := scene.DinnerScenario(scene.DinnerOptions{Persons: 4, Frames: 1500, Seed: seed, Enjoyment: 0.6})
			if err != nil {
				return err
			}
			sim, err := scene.NewSimulator(sc)
			if err != nil {
				return err
			}
			symsB, symsM, truth := hmm.FeaturizeScenarioBursty(sim, bm, seed)
			accOf := func(h *hmm.HMM, syms []int) (float64, error) {
				states, err := h.Viterbi(syms)
				if err != nil {
					return 0, err
				}
				pred := make([]scene.Phase, len(states))
				for i, s := range states {
					pred[i] = scene.Phase(s)
				}
				return hmm.PhaseAccuracy(pred, truth), nil
			}
			accB, err := accOf(base, symsB)
			if err != nil {
				return err
			}
			accM, err := accOf(multi, symsM)
			if err != nil {
				return err
			}
			sumB += accB
			sumM += accM
		}
		fmt.Printf("%-26.2f %-20.3f %-20.3f\n", burst, sumB/trials, sumM/trials)
	}
	fmt.Println("expected shape: parity when clean; multilayer degrades more gracefully as the gaze layer fails")
	return nil
}

// tableThroughput reports per-stage pipeline timing (experiment T-C).
func tableThroughput() error {
	header("T-C — pipeline throughput per stage (610-frame prototype, geometric vision)")
	p, err := core.New(core.Config{
		Scenario: scene.PrototypeScenario(),
		Mode:     core.GeometricVision,
		Gaze:     gaze.EstimatorOptions{Seed: 1},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := p.Run()
	if err != nil {
		return err
	}
	defer res.Repo.Close()
	total := time.Since(start)
	fmt.Printf("%-20s %-14s %-12s\n", "stage", "wall time", "µs/frame")
	for _, st := range res.Timings {
		fmt.Printf("%-20s %-14v %-12.1f\n", st.Name, st.Duration.Round(time.Microsecond),
			float64(st.Duration.Microseconds())/float64(res.FramesAnalyzed))
	}
	fps := float64(res.FramesAnalyzed) / total.Seconds()
	fmt.Printf("end-to-end: %v for %d frames → %.0f fps (capture is 25 fps: %.0fx real time)\n",
		total.Round(time.Millisecond), res.FramesAnalyzed, fps, fps/25)

	// Pixel-vision throughput on a short prefix.
	pp, err := core.New(core.Config{
		Scenario:  scene.PrototypeScenario(),
		Mode:      core.PixelVision,
		Gaze:      gaze.EstimatorOptions{Seed: 1},
		MaxFrames: 50,
	})
	if err != nil {
		return err
	}
	start = time.Now()
	pres, err := pp.Run()
	if err != nil {
		return err
	}
	defer pres.Repo.Close()
	ptotal := time.Since(start)
	fmt.Printf("pixel vision: %v for %d frames → %.1f fps\n",
		ptotal.Round(time.Millisecond), pres.FramesAnalyzed,
		float64(pres.FramesAnalyzed)/ptotal.Seconds())

	// Raw detection throughput on the fused template-matching engine
	// (DESIGN.md §6): full-frame multi-scale scans of one rendered
	// prototype frame.
	sim, rig, _, err := protoSetup()
	if err != nil {
		return err
	}
	frame := video.NewRenderer(sim, rig.Cameras[0], video.RenderOptions{}).Render(250).Pixels
	det, err := face.NewDetector(face.DetectorOptions{})
	if err != nil {
		return err
	}
	const runs = 50
	start = time.Now()
	for i := 0; i < runs; i++ {
		det.Detect(frame)
	}
	dtotal := time.Since(start)
	perFrame := dtotal / runs
	windows := det.GridWindows(frame.W, frame.H)
	fmt.Printf("detection: %d coarse windows/frame in %v → %.2fM windows/s, %.1f detection frames/s\n",
		windows, perFrame.Round(time.Microsecond),
		float64(windows)/perFrame.Seconds()/1e6,
		float64(runs)/dtotal.Seconds())

	// Per-face inference throughput on the batched paths (DESIGN.md
	// §12): batched identity + batched emotion classification over an
	// 8-face frame, the classify stage's steady-state shape.
	clf, err := emotion.NewClassifier(48, 1)
	if err != nil {
		return err
	}
	if _, err := clf.Train(emotion.GenerateDataset(10, 1),
		emotion.TrainOptions{Epochs: 5, Seed: 2, LearningRate: 0.01}); err != nil {
		return err
	}
	rec := face.NewRecognizer()
	var crops []*img.Gray
	for p := 0; p < 4; p++ {
		for v := uint64(0); v < 2; v++ {
			crop := emotion.GenerateFace(emotion.Neutral, uint64(p)*8+v, uint8(100+30*p))
			if err := rec.Enroll(fmt.Sprintf("P%d", p), crop); err != nil {
				return err
			}
			crops = append(crops, crop)
		}
	}
	var ids []string
	var sims []float64
	var labels []emotion.Label
	var confs []float64
	const faceRuns = 100
	start = time.Now()
	for i := 0; i < faceRuns; i++ {
		ids, sims = rec.IdentifyBatch(crops, ids, sims)
		if labels, confs, err = clf.ClassifyBatch(crops, labels, confs); err != nil {
			return err
		}
	}
	ftotal := time.Since(start)
	fmt.Printf("face inference: %d faces/frame (identify + classify, batched) in %v/frame → %.0f faces/s\n",
		len(crops), (ftotal / faceRuns).Round(time.Microsecond),
		float64(len(crops)*faceRuns)/ftotal.Seconds())
	return nil
}

// tableMetadata reports repository ingest and query metrics (T-D).
func tableMetadata() error {
	header("T-D — metadata repository: ingest rate and query latency")
	dir, err := os.MkdirTemp("", "dievent-meta")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	repo, err := metadata.Open(dir)
	if err != nil {
		return err
	}
	defer repo.Close()

	const n = 50000
	labelsList := []string{"happy", "sad", "neutral", "eye-contact", "shot"}
	start := time.Now()
	for i := 0; i < n; i++ {
		_, err := repo.Append(metadata.Record{
			Kind: metadata.KindObservation, Frame: i, FrameEnd: i + 1,
			Time:   time.Duration(i) * 40 * time.Millisecond,
			Person: i % 4, Other: -1,
			Label: labelsList[i%len(labelsList)], Value: float64(i%100) / 100,
		})
		if err != nil {
			return err
		}
	}
	if err := repo.Sync(); err != nil {
		return err
	}
	ingest := time.Since(start)
	fmt.Printf("ingest: %d records in %v → %.0f records/s (durable log + indexes)\n",
		n, ingest.Round(time.Millisecond), float64(n)/ingest.Seconds())

	queries := []string{
		"label = 'eye-contact'",
		"label = 'happy' AND person = 2 AND frame >= 25000",
		"kind = observation AND value > 0.95",
		"(label = 'sad' OR label = 'shot') AND frame < 10000",
	}
	for _, q := range queries {
		start := time.Now()
		recs, err := repo.Query(q)
		if err != nil {
			return err
		}
		fmt.Printf("query %-55q → %6d rows in %v\n", q, len(recs),
			time.Since(start).Round(time.Microsecond))
	}

	h, err := repo.Health()
	if err != nil {
		return err
	}
	switch {
	case h.Degraded:
		fmt.Printf("health: DEGRADED — %d quarantined segment(s), write fault %v, dir-sync pending %v\n",
			len(h.Quarantined), h.WriteFault, h.PendingDirSync)
	default:
		fmt.Println("health: ok (no quarantined segments, no pending fault repairs)")
	}
	for _, act := range h.Recovery {
		fmt.Printf("  recovery: %s\n", act)
	}
	return nil
}

// tableStages surfaces the stage graph (DESIGN.md §7): the resolved
// stage list, the per-stage timing table from the pipeline's stage
// timer, and — with -rederive — an incremental re-run that forces one
// stage stale and replays every fresh raw layer from the first run's
// repository.
func tableStages(extraStages, rederive string) error {
	header("Stage graph — resolved stages, per-stage timing, incremental re-derivation")
	cfg := core.Config{
		Scenario:    scene.PrototypeScenario(),
		Mode:        core.GeometricVision,
		Gaze:        gaze.EstimatorOptions{Seed: 1},
		Incremental: true,
	}
	if extraStages != "" {
		for _, s := range strings.Split(extraStages, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Stages = append(cfg.Stages, s)
			}
		}
	}
	p, err := core.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("graph (%s vision): %s\n", cfg.Mode, strings.Join(p.StageNames(), " → "))

	start := time.Now()
	res, err := p.Run()
	if err != nil {
		return err
	}
	defer res.Repo.Close()
	fullWall := time.Since(start)
	fmt.Printf("\nfull run: %v for %d frames\n", fullWall.Round(time.Millisecond), res.FramesAnalyzed)
	printTimings(res.Timings, res.FramesAnalyzed)
	if res.Attention != nil {
		fmt.Println("attention spans (pluggable analyzer):")
		for _, st := range res.Attention.Stats {
			if st.Spans == 0 {
				continue
			}
			fmt.Printf("  P%d: %d fixations, mean %.0f frames, longest %d\n",
				st.Person+1, st.Spans, st.MeanFrames, st.LongestFrames)
		}
	}

	if rederive == "" {
		fmt.Println("hint: -rederive geo-emotion re-runs only the emotion chain against this run's manifest")
		return nil
	}

	start = time.Now()
	inc, err := p.RunIncremental(res.Repo, rederive)
	if err != nil {
		return err
	}
	defer inc.Repo.Close()
	incWall := time.Since(start)
	fmt.Printf("\nincremental re-run (-rederive %s): %v  (%.0f%% of the full run)\n",
		rederive, incWall.Round(time.Millisecond), 100*incWall.Seconds()/fullWall.Seconds())
	fmt.Printf("  stale:  %s\n", strings.Join(inc.StaleStages, ", "))
	fmt.Printf("  reused: %s (replayed from the repository — no re-extraction)\n",
		strings.Join(inc.ReusedStages, ", "))
	printTimings(inc.Timings, inc.FramesAnalyzed)
	fmt.Printf("records: full %d, incremental %d (byte-identical layers)\n",
		res.Repo.Len(), inc.Repo.Len())
	return nil
}

// printTimings renders a stage-timer report grouped by stage name.
func printTimings(timings []core.StageTiming, frames int) {
	fmt.Printf("%-20s %-14s %-12s\n", "stage", "time", "µs/frame")
	for _, st := range timings {
		fmt.Printf("%-20s %-14v %-12.1f\n", st.Name, st.Duration.Round(time.Microsecond),
			float64(st.Duration.Microseconds())/float64(frames))
	}
}

// --- shared helpers ---

func protoSetup() (*scene.Simulator, *camera.Rig, []int, error) {
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		return nil, nil, nil, err
	}
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		return nil, nil, nil, err
	}
	return sim, rig, []int{0, 1, 2, 3}, nil
}

var protoColors = map[int]string{0: "yellow", 1: "blue", 2: "green", 3: "black"}

func printMatrix(m gaze.Matrix) {
	fmt.Printf("%8s", "")
	for _, id := range m.IDs {
		fmt.Printf("%8s", fmt.Sprintf("P%d", id+1))
	}
	fmt.Println()
	for i, id := range m.IDs {
		fmt.Printf("%8s", fmt.Sprintf("P%d", id+1))
		for j := range m.IDs {
			fmt.Printf("%8d", m.M[i][j])
		}
		fmt.Printf("   (%s)\n", protoColors[id])
	}
}

func printIntMatrix(m [][]int) {
	fmt.Printf("%8s", "")
	for j := range m {
		fmt.Printf("%8s", fmt.Sprintf("P%d", j+1))
	}
	fmt.Println()
	for i := range m {
		fmt.Printf("%8s", fmt.Sprintf("P%d", i+1))
		for j := range m[i] {
			fmt.Printf("%8d", m[i][j])
		}
		fmt.Println()
	}
}

// printTopView draws an ASCII top-view map of the table with look-at
// arrows, echoing the paper's Fig. 7/8 visualisation.
func printTopView(sim *scene.Simulator, m gaze.Matrix) {
	fmt.Println("top view (table centre at +; arrows list who looks at whom):")
	persons := sim.Persons()
	// 2-D layout: seats normalised to a 33x11 character canvas.
	const W, H = 37, 11
	canvas := make([][]byte, H)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", W))
	}
	canvas[H/2][W/2] = '+'
	for _, p := range persons {
		x := int((p.Seat.X/1.6 + 1) / 2 * float64(W-4))
		y := int((p.Seat.Y/1.2 + 1) / 2 * float64(H-1))
		if y < 0 {
			y = 0
		}
		if y >= H {
			y = H - 1
		}
		label := fmt.Sprintf("P%d", p.ID+1)
		for k, c := range []byte(label) {
			if x+k < W {
				canvas[y][x+k] = c
			}
		}
	}
	for _, row := range canvas {
		fmt.Println(string(row))
	}
	for i, from := range m.IDs {
		for j, to := range m.IDs {
			if m.M[i][j] == 1 {
				fmt.Printf("  P%d(%s) → P%d(%s)\n", from+1, protoColors[from], to+1, protoColors[to])
			}
		}
	}
}

func pairNames(pairs [][2]int) string {
	if len(pairs) == 0 {
		return "none"
	}
	var parts []string
	for _, p := range pairs {
		parts = append(parts, fmt.Sprintf("P%d(%s)-P%d(%s)",
			p[0]+1, protoColors[p[0]], p[1]+1, protoColors[p[1]]))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func asinDeg(x float64) float64 {
	if x > 1 {
		x = 1
	}
	if x < -1 {
		x = -1
	}
	return math.Asin(x) * 180 / math.Pi
}

// tableSpeaker evaluates gaze-based speaker inference (experiment T-F):
// the multilayer analyzer reads the participant drawing majority gaze as
// holding the floor and is scored against the dinner scripts' speaker
// ground truth during conversation phases.
func tableSpeaker() error {
	header("T-F — speaker inference from received gaze (conversation phases)")
	fmt.Printf("%-8s %-12s %-12s\n", "dinner", "accuracy", "chance")
	var sum float64
	const trials = 5
	for seed := int64(30); seed < 30+trials; seed++ {
		sc, err := scene.DinnerScenario(scene.DinnerOptions{
			Persons: 4, Frames: 2000, Seed: seed, Enjoyment: 0.6,
		})
		if err != nil {
			return err
		}
		p, err := core.New(core.Config{
			Scenario: sc, Mode: core.GeometricVision,
			Gaze: gaze.EstimatorOptions{Seed: seed},
		})
		if err != nil {
			return err
		}
		res, err := p.Run()
		if err != nil {
			return err
		}
		sim, err := scene.NewSimulator(sc)
		if err != nil {
			res.Repo.Close()
			return err
		}
		truth := make([]int, res.FramesAnalyzed)
		for i := range truth {
			fs := sim.FrameState(i)
			truth[i] = -1
			if fs.Phase != scene.PhaseTalking && fs.Phase != scene.PhaseOrdering {
				continue
			}
			for _, ps := range fs.Persons {
				if ps.Speaking {
					truth[i] = ps.ID
				}
			}
		}
		acc := layers.SpeakerAccuracy(res.Layers.InferredSpeakers, truth)
		res.Repo.Close()
		sum += acc
		fmt.Printf("%-8d %-12.3f %-12.3f\n", seed, acc, 0.25)
	}
	fmt.Printf("%-8s %-12.3f\n", "mean", sum/trials)
	fmt.Println("expected shape: far above the 4-person chance rate of 0.25")
	return nil
}
