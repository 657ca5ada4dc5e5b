// Package face implements DiEvent's face components (paper §II-C): face
// detection on video frames, face recognition for identity assignment
// (the paper's OpenFace-library role), and multi-face tracking across
// frames (Kalman filtering + Hungarian data association).
package face

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/emotion"
	"repro/internal/img"
)

// Detection is one detected face.
type Detection struct {
	// Box is the face bounding box in pixels.
	Box img.Rect
	// Score is the detector confidence in [0,1] (template NCC).
	Score float64
}

// DetectorOptions tune the sliding-window detector. Callers pass the
// zero value, which selects the calibrated defaults; the fields are
// seams for the package's tests.
type DetectorOptions struct {
	// scales are the window heights (pixels) to scan (default
	// 24, 34, 48, 68, 96 — a √2 pyramid).
	scales []int
	// strideFrac is the scan stride as a fraction of window size
	// (default 0.25).
	strideFrac float64
	// minScore is the NCC acceptance threshold after refinement
	// (default 0.55).
	minScore float64
	// coarseScore is the lower threshold that promotes a coarse-grid
	// window to sub-stride refinement (default 0.33).
	coarseScore float64
	// minVariance skips windows flatter than this (default 100) —
	// cheap integral-image pre-filter.
	minVariance float64
	// nmsIoU is the overlap above which weaker detections are
	// suppressed (default 0.3).
	nmsIoU float64
}

func (o DetectorOptions) withDefaults() DetectorOptions {
	if len(o.scales) == 0 {
		o.scales = []int{24, 34, 48, 68, 96}
	}
	if o.strideFrac == 0 {
		o.strideFrac = 0.25
	}
	if o.minScore == 0 {
		o.minScore = 0.55
	}
	if o.coarseScore == 0 {
		o.coarseScore = 0.33
	}
	if o.minVariance == 0 {
		o.minVariance = 100
	}
	if o.nmsIoU == 0 {
		o.nmsIoU = 0.3
	}
	return o
}

// ErrBadOptions reports invalid detector configuration.
var ErrBadOptions = errors.New("face: bad options")

// Detector finds faces by multi-scale normalised cross-correlation
// against a canonical face template — the classical pre-CNN approach,
// adequate because the synthetic renderer and the template share the
// same face geometry (see DESIGN.md §1 on substitutions).
//
// Scanning runs on the fused template-matching engine (DESIGN.md §6):
// each scale's zero-mean template is precomputed once here, window
// mean/variance come from per-frame summed-area tables in O(1), and
// the NCC numerator is a single in-place dot product over the frame —
// no per-window crop or mean pass. The pre-engine crop-and-img.NCC
// scan is retained in the package's tests as detectOracle, the
// reference the fused path must match box-for-box.
type Detector struct {
	opt DetectorOptions
	// templates holds the canonical face resized per scale, wider
	// aspect matching the renderer's 1:1.2 face boxes. Retained for
	// the oracle path.
	templates map[int]*img.Gray
	// matchers holds each scale's precomputed zero-mean template.
	matchers map[int]*img.TemplateMatcher
	// tables pools per-frame summed-area table pairs for Detect
	// callers that don't supply their own, keeping concurrent Detect
	// calls allocation-free in steady state.
	tables sync.Pool
	// scratch pools per-call cascade state (block pyramid, cell-skip
	// bitmap, refinement memo) for DetectIntegrals, so the pooled and
	// shared-table entry points run the identical machinery and both
	// stay allocation-free in steady state.
	scratch sync.Pool
}

// integralPair is one pooled (plain, squared) table pair.
type integralPair struct {
	in *img.Integral
	sq *img.IntegralSq
}

// detScratch is one pooled DetectIntegrals working set.
type detScratch struct {
	pyr  img.Pyramid
	skip []bool
	memo map[uint32]memoEntry
}

// memoEntry is one refinement-memo record for a window position: the
// exact score when exact, otherwise an upper bound the true score is
// strictly below.
type memoEntry struct {
	v     float64
	exact bool
}

// memoKey packs a window anchor; frame dimensions are far below 64k.
func memoKey(x, y int) uint32 { return uint32(y)<<16 | uint32(x) }

// NewDetector builds a detector.
func NewDetector(opt DetectorOptions) (*Detector, error) {
	opt = opt.withDefaults()
	for _, s := range opt.scales {
		if s < 8 {
			return nil, fmt.Errorf("face: scale %d too small: %w", s, ErrBadOptions)
		}
	}
	if opt.strideFrac <= 0 || opt.strideFrac > 1 {
		return nil, fmt.Errorf("face: stride %v outside (0,1]: %w", opt.strideFrac, ErrBadOptions)
	}
	// Canonical neutral face, mid tone, no jitter.
	base := emotion.GenerateFace(emotion.Neutral, 0, 180)
	d := &Detector{
		opt:       opt,
		templates: make(map[int]*img.Gray, len(opt.scales)),
		matchers:  make(map[int]*img.TemplateMatcher, len(opt.scales)),
	}
	for _, h := range opt.scales {
		w := h * 5 / 6 // renderer draws faces slightly taller than wide
		tpl := base.Resize(w, h)
		d.templates[h] = tpl
		d.matchers[h] = img.NewTemplateMatcher(tpl)
	}
	return d, nil
}

// Detect scans the frame and returns non-overlapping face detections,
// strongest first. Scanning is coarse-to-fine: a strided grid pass
// promotes promising windows (score ≥ coarseScore) to a local
// sub-stride refinement, and only refined scores are thresholded at
// minScore. Both passes run on the fused matching kernel over
// frame-wide summed-area tables built here; callers that already hold
// the tables (the extraction engine builds them once per
// (camera, frame)) should use DetectIntegrals.
func (d *Detector) Detect(g *img.Gray) []Detection {
	p, _ := d.tables.Get().(*integralPair)
	if p == nil {
		p = &integralPair{}
	}
	p.in, p.sq = img.BuildIntegrals(g, p.in, p.sq)
	dets := d.DetectIntegrals(g, p.in, p.sq)
	d.tables.Put(p)
	return dets
}

// DetectIntegrals is Detect with caller-supplied summed-area tables of
// g (plain and squared), sharing one table build across every consumer
// of the frame. in and sq must have been built from exactly g.
//
// Scanning runs the reject cascade of DESIGN.md §12: a per-frame block
// pyramid is built once and shared across every scale, a flat-cell
// tier clears 2×2 groups of scan anchors with one dilated-window probe
// where the contrast pre-filter provably fails, survivors bound
// through the pyramid tier before any full-resolution kernel work, and
// refinement climbs share an exact-score/upper-bound memo per scale.
// Every skip is proven below the corresponding oracle threshold, so
// output stays byte-identical to the exhaustive detectOracle.
func (d *Detector) DetectIntegrals(g *img.Gray, in *img.Integral, sq *img.IntegralSq) []Detection {
	sc, _ := d.scratch.Get().(*detScratch)
	if sc == nil {
		sc = &detScratch{memo: make(map[uint32]memoEntry, 256)}
	}
	img.BuildPyramid(g, in, &sc.pyr)
	var raw []Detection
	for _, h := range d.opt.scales {
		m := d.matchers[h]
		w := m.W
		if w > g.W || h > g.H {
			continue
		}
		stride := d.scanStride(h)
		nax := (g.W-w)/stride + 1
		nay := (g.H-h)/stride + 1
		sc.buildCellSkip(in, sq, nax, nay, stride, w, h, d.opt.minVariance)
		clear(sc.memo)
		for ay := 0; ay < nay; ay++ {
			y := ay * stride
			for ax := 0; ax < nax; ax++ {
				if sc.skip[ay*nax+ax] {
					continue
				}
				x := ax * stride
				win := img.Rect{X: x, Y: y, W: w, H: h}
				// Cheap integral-image pre-filter: faces have a
				// bright centre against a darker surround. Scan
				// windows are in-bounds by construction, so the
				// unclipped lookups apply.
				centre := in.RegionMeanUnclipped(img.Rect{X: x + w/4, Y: y + h/4, W: w / 2, H: h / 2})
				border := in.RegionMeanUnclipped(win)
				diff := centre - border
				if diff < 0 {
					diff = -diff
				}
				if diff*diff < d.opt.minVariance/4 {
					continue
				}
				// Variance gate + coarse score behind the pyramid
				// tier: full-resolution kernel work only for windows
				// the block-level bound cannot reject.
				score, ok := m.ScoreCascade(g, in, sq, &sc.pyr, x, y, d.opt.coarseScore, d.opt.minVariance)
				if ok {
					// Exact scores seed the refinement memo — climbs
					// from neighbouring promotions revisit grid
					// positions. A (0,false) reject is not memoised:
					// it may come from the variance gate, which bounds
					// nothing about the score.
					sc.memo[memoKey(x, y)] = memoEntry{v: score, exact: true}
				}
				if !ok || score < d.opt.coarseScore {
					continue
				}
				var best Detection
				if best, ok = d.refine(g, m, in, sq, &sc.pyr, sc.memo, win, stride, score); ok {
					raw = append(raw, best)
				}
			}
		}
	}
	d.scratch.Put(sc)
	return nms(raw, d.opt.nmsIoU)
}

// buildCellSkip fills sc.skip (one flag per scan anchor) by probing
// 2×2 anchor cells through their dilated union window: with μ the
// dilated region's mean and dev its deviation mass Σ(f−μ)², every
// window inside the region has variance da ≤ dev, and the contrast
// pre-filter's |centre−border| is at most 2√(da/n) (the centre rect is
// a quarter of the window, and centre−border averages f−border over
// it). So dev < n·minVariance/16 proves all four windows fail the
// pre-filter, and one 8-load probe replaces four. Cells are decided in
// a separate pass so the scan loop's window order — and therefore the
// NMS input order — is untouched.
func (sc *detScratch) buildCellSkip(in *img.Integral, sq *img.IntegralSq, nax, nay, stride, w, h int, minVar float64) {
	if cap(sc.skip) < nax*nay {
		sc.skip = make([]bool, nax*nay)
	}
	sc.skip = sc.skip[:nax*nay]
	clear(sc.skip)
	// The margin covers the probe's single float rounding, mirroring
	// the kernel's early-out discipline.
	cellCut := float64(w*h)*minVar/16 - 1e-6
	dw, dh := w+stride, h+stride
	nD := uint64(dw * dh)
	for ay := 0; ay+1 < nay; ay += 2 {
		row0 := ay * nax
		for ax := 0; ax+1 < nax; ax += 2 {
			// The dilated rect is in-frame because anchor
			// (ax+1, ay+1) is a valid scan anchor.
			dr := img.Rect{X: ax * stride, Y: ay * stride, W: dw, H: dh}
			s := in.RegionSumUnclipped(dr)
			q := sq.RegionSumUnclipped(dr)
			if float64(nD*q-s*s)/float64(nD) < cellCut {
				sc.skip[row0+ax] = true
				sc.skip[row0+ax+1] = true
				sc.skip[row0+nax+ax] = true
				sc.skip[row0+nax+ax+1] = true
			}
		}
	}
}

// refine hill-climbs the window position at progressively finer steps
// to undo the coarse grid's localisation loss, returning the best
// detection if it clears minScore. Candidates score through the reject
// cascade with the current best as the early-out bound (no variance
// gate — the oracle refine scores every candidate), and every scored
// position lands in the per-scale memo shared across climbs: an exact
// entry is reused directly (the oracle would recompute the identical
// value), and a bound entry u proves score < u, so whenever u is at or
// below the current best the candidate provably cannot improve —
// decisions match the exhaustive climb exactly. When a candidate is
// rescored past a stale higher bound, the lower bound replaces it.
func (d *Detector) refine(g *img.Gray, m *img.TemplateMatcher, in *img.Integral, sq *img.IntegralSq, pyr *img.Pyramid, memo map[uint32]memoEntry, win img.Rect, stride int, score float64) (Detection, bool) {
	best := Detection{Box: win, Score: score}
	for step := stride / 2; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, off := range [4][2]int{{-step, 0}, {step, 0}, {0, -step}, {0, step}} {
				cand := img.Rect{X: best.Box.X + off[0], Y: best.Box.Y + off[1], W: win.W, H: win.H}
				if cand.X < 0 || cand.Y < 0 || cand.X+cand.W > g.W || cand.Y+cand.H > g.H {
					continue
				}
				key := memoKey(cand.X, cand.Y)
				if e, ok := memo[key]; ok {
					if e.exact {
						if e.v > best.Score {
							best = Detection{Box: cand, Score: e.v}
							improved = true
						}
						continue
					}
					if e.v <= best.Score {
						continue
					}
				}
				if s, ok := m.ScoreCascade(g, in, sq, pyr, cand.X, cand.Y, best.Score, -1); ok {
					memo[key] = memoEntry{v: s, exact: true}
					if s > best.Score {
						best = Detection{Box: cand, Score: s}
						improved = true
					}
				} else {
					memo[key] = memoEntry{v: best.Score}
				}
			}
		}
	}
	if best.Score < d.opt.minScore {
		return Detection{}, false
	}
	return best, true
}

// scanStride is the coarse-grid step for one scale — shared by the
// scan loops and GridWindows so the two can't drift.
func (d *Detector) scanStride(h int) int {
	stride := int(float64(h) * d.opt.strideFrac)
	if stride < 1 {
		stride = 1
	}
	return stride
}

// GridWindows returns the number of coarse-grid windows one Detect
// pass evaluates over a w×h frame, summed across scales — the
// denominator of windows/second throughput reporting. Geometry comes
// from the built matchers, so it always matches the scan.
func (d *Detector) GridWindows(w, h int) int {
	var total int
	for _, sh := range d.opt.scales {
		sw := d.matchers[sh].W
		if sw > w || sh > h {
			continue
		}
		stride := d.scanStride(sh)
		total += ((h-sh)/stride + 1) * ((w-sw)/stride + 1)
	}
	return total
}

// nms performs greedy non-maximum suppression by IoU.
func nms(dets []Detection, iou float64) []Detection {
	sort.Slice(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
	var out []Detection
	for _, d := range dets {
		keep := true
		for _, k := range out {
			if d.Box.IoU(k.Box) > iou {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, d)
		}
	}
	return out
}
