package face

import "repro/internal/img"

// This file retains the pre-engine detection path — the per-window
// CropInto + Variance + img.NCC scan — as the reference oracle the
// fused template-matching engine is tested against (DESIGN.md §6):
// detectOracle must produce byte-identical boxes and scores within
// 1e-9 of DetectIntegrals across the seeded scenario suite.

// detectOracle is the exhaustive crop-based Detect.
func (d *Detector) detectOracle(g *img.Gray) []Detection {
	integral := img.NewIntegral(g)
	var raw []Detection
	// One crop buffer serves every candidate window of the scan.
	var crop *img.Gray
	for _, h := range d.opt.scales {
		tpl := d.templates[h]
		w := tpl.W
		if w > g.W || h > g.H {
			continue
		}
		stride := int(float64(h) * d.opt.strideFrac)
		if stride < 1 {
			stride = 1
		}
		for y := 0; y+h <= g.H; y += stride {
			for x := 0; x+w <= g.W; x += stride {
				win := img.Rect{X: x, Y: y, W: w, H: h}
				centre := integral.RegionMean(img.Rect{X: x + w/4, Y: y + h/4, W: w / 2, H: h / 2})
				border := integral.RegionMean(win)
				diff := centre - border
				if diff < 0 {
					diff = -diff
				}
				if diff*diff < d.opt.minVariance/4 {
					continue
				}
				c, err := g.CropInto(win, crop)
				if err != nil {
					continue
				}
				crop = c
				if crop.Variance() < d.opt.minVariance {
					continue
				}
				score := img.NCC(crop, tpl)
				if score < d.opt.coarseScore {
					continue
				}
				var best Detection
				var ok bool
				if best, ok, crop = d.refineOracle(g, tpl, win, stride, score, crop); ok {
					raw = append(raw, best)
				}
			}
		}
	}
	return nms(raw, d.opt.nmsIoU)
}

// refineOracle is the exhaustive crop-based refine: every candidate is
// cropped and scored with img.NCC, revisits included.
func (d *Detector) refineOracle(g *img.Gray, tpl *img.Gray, win img.Rect, stride int, score float64, crop *img.Gray) (Detection, bool, *img.Gray) {
	best := Detection{Box: win, Score: score}
	for step := stride / 2; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, off := range [4][2]int{{-step, 0}, {step, 0}, {0, -step}, {0, step}} {
				cand := img.Rect{X: best.Box.X + off[0], Y: best.Box.Y + off[1], W: win.W, H: win.H}
				c, err := g.CropInto(cand, crop)
				if err != nil {
					continue
				}
				crop = c
				if s := img.NCC(crop, tpl); s > best.Score {
					best = Detection{Box: cand, Score: s}
					improved = true
				}
			}
		}
	}
	if best.Score < d.opt.minScore {
		return Detection{}, false, crop
	}
	return best, true, crop
}
