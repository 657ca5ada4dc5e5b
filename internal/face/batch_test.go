package face

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/emotion"
	"repro/internal/img"
)

// galleryCrops renders a set of identity crops from the synthetic face
// generator: per person a fixed (variant, tone) pair, several jittered
// samples each.
func galleryCrops(n int) map[string][]*img.Gray {
	out := make(map[string][]*img.Gray, n)
	for p := 0; p < n; p++ {
		id := string(rune('A' + p))
		tone := uint8(90 + 30*p)
		for v := uint64(0); v < 3; v++ {
			out[id] = append(out[id], emotion.GenerateFace(emotion.Neutral, uint64(p)*10+v, tone))
		}
	}
	return out
}

// TestIdentifyBatchMatchesIdentify checks the batched recognizer path
// agrees with per-crop Identify on hits and misses alike.
func TestIdentifyBatchMatchesIdentify(t *testing.T) {
	rec := NewRecognizer()
	gallery := galleryCrops(4)
	for id, crops := range gallery {
		for _, c := range crops {
			if err := rec.Enroll(id, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var probes []*img.Gray
	for _, crops := range gallery {
		probes = append(probes, crops...)
	}
	// Unknown probes: a flat crop and an unrelated emotion/tone.
	flat := img.New(40, 48)
	flat.Fill(128)
	probes = append(probes, flat, emotion.GenerateFace(emotion.Surprise, 99, 250))

	ids, sims := rec.IdentifyBatch(probes, nil, nil)
	if len(ids) != len(probes) || len(sims) != len(probes) {
		t.Fatalf("batch sizes %d/%d for %d probes", len(ids), len(sims), len(probes))
	}
	for i, p := range probes {
		id, sim, err := rec.Identify(p)
		if err != nil {
			if !errors.Is(err, ErrUnknownFace) {
				t.Fatal(err)
			}
			id = ""
		}
		if ids[i] != id || sims[i] != sim {
			t.Fatalf("probe %d: batch (%q,%v) != single (%q,%v)", i, ids[i], sims[i], id, sim)
		}
	}

	// Empty gallery and empty batch behave like Identify's misses.
	empty := NewRecognizer()
	ids, sims = empty.IdentifyBatch(probes[:2], ids, sims)
	for i := range ids {
		if ids[i] != "" {
			t.Fatalf("empty gallery probe %d matched %q", i, ids[i])
		}
		_ = sims[i]
	}
	if ids, sims = rec.IdentifyBatch(nil, ids, sims); len(ids) != 0 || len(sims) != 0 {
		t.Fatal("empty batch must return empty slices")
	}
}

// TestIdentifyBatchConcurrent hammers one shared recognizer from many
// goroutines mixing IdentifyBatch and Identify — run under -race this
// is the gallery-lock safety gate.
func TestIdentifyBatchConcurrent(t *testing.T) {
	rec := NewRecognizer()
	gallery := galleryCrops(3)
	for id, crops := range gallery {
		for _, c := range crops {
			if err := rec.Enroll(id, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var probes []*img.Gray
	for _, crops := range gallery {
		probes = append(probes, crops[0])
	}
	wantIDs, wantSims := rec.IdentifyBatch(probes, nil, nil)
	wi := append([]string(nil), wantIDs...)
	ws := append([]float64(nil), wantSims...)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ids []string
			var sims []float64
			for iter := 0; iter < 20; iter++ {
				if g%2 == 0 {
					ids, sims = rec.IdentifyBatch(probes, ids, sims)
					for i := range wi {
						if ids[i] != wi[i] || sims[i] != ws[i] {
							t.Errorf("batch drifted at probe %d", i)
							return
						}
					}
				} else {
					for i, p := range probes {
						id, sim, err := rec.Identify(p)
						if err != nil || id != wi[i] || sim != ws[i] {
							t.Errorf("single drifted at probe %d: %v", i, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCellSkipContract is the flat-cell tier's never-wrong-skip
// contract: every anchor buildCellSkip marks skippable must genuinely
// fail the contrast pre-filter the scan loop would have applied, so
// skipping can never change the detector's output.
func TestCellSkipContract(t *testing.T) {
	det, err := NewDetector(DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	g := img.New(320, 240)
	g.Fill(50)
	for i := range g.Pix {
		if rng.Intn(9) == 0 {
			g.Pix[i] = uint8(int(g.Pix[i]) + rng.Intn(4))
		}
	}
	emotion.RenderFaceInto(g, img.Rect{X: 60, Y: 40, W: 40, H: 48}, 180, emotion.Neutral, 1)
	emotion.RenderFaceInto(g, img.Rect{X: 200, Y: 120, W: 60, H: 72}, 220, emotion.Happy, 2)
	in, sq := img.BuildIntegrals(g, nil, nil)

	sc := &detScratch{}
	minVar := det.opt.minVariance
	totalSkipped := 0
	for _, h := range det.opt.scales {
		m := det.matchers[h]
		w := m.W
		if w > g.W || h > g.H {
			continue
		}
		stride := det.scanStride(h)
		nax := (g.W-w)/stride + 1
		nay := (g.H-h)/stride + 1
		sc.buildCellSkip(in, sq, nax, nay, stride, w, h, minVar)
		skipped := 0
		for ay := 0; ay < nay; ay++ {
			for ax := 0; ax < nax; ax++ {
				if !sc.skip[ay*nax+ax] {
					continue
				}
				skipped++
				x, y := ax*stride, ay*stride
				win := img.Rect{X: x, Y: y, W: w, H: h}
				centre := in.RegionMeanUnclipped(img.Rect{X: x + w/4, Y: y + h/4, W: w / 2, H: h / 2})
				border := in.RegionMeanUnclipped(win)
				diff := centre - border
				if diff*diff >= minVar/4 {
					t.Fatalf("scale %d anchor (%d,%d): skipped but pre-filter diff²=%v ≥ %v",
						h, x, y, diff*diff, minVar/4)
				}
			}
		}
		totalSkipped += skipped
	}
	// The tier must actually fire on a mostly-flat frame, or the
	// contract test proves nothing.
	if totalSkipped == 0 {
		t.Error("cell skip rejected nothing on a mostly-flat frame")
	}
}
