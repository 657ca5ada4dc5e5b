// Package parsing implements DiEvent's video-composition analysis (paper
// §II-B): shot-boundary detection (hard cuts and gradual dissolves),
// key-frame extraction, and scene segmentation, producing the
// video → scene → shot → key-frame hierarchy of Fig. 3.
//
// Detection uses the classic dual-signal approach surveyed in the
// paper's reference [19]: per-frame χ² histogram distance plus mean
// absolute pixel difference, against an adaptive sliding-window
// threshold; gradual transitions use a twin-threshold accumulator.
package parsing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/img"
	"repro/internal/video"
)

// Detector thresholds. The cut and gradual thresholds are relative to
// a trailing window's baseline, so the detector adapts to each stream's
// noise floor.
const (
	// cutChiRel declares a hard-cut candidate when the χ² distance
	// exceeds cutChiRel × the window mean.
	cutChiRel = 3
	// cutMadRel additionally requires the pixel difference to exceed
	// cutMadRel × the window mean MAD — the second opinion that keeps
	// global lighting flicker from registering as cuts.
	cutMadRel = 1.5
	// chiFloor and madFloor are absolute minimums for the two cut
	// signals, so near-zero baselines on clean synthetic footage don't
	// make the relative test hair-triggered.
	chiFloor, madFloor = 5e-4, 0.004
	// window is the sliding window length in frames for the adaptive
	// baseline.
	window = 24
	// minShotLen suppresses boundaries closer than this to the previous
	// one.
	minShotLen = 8
	// gradualRel starts a gradual-transition candidate while χ² stays
	// above gradualRel × the window mean (with a 0.002 absolute floor);
	// gradualHigh confirms the transition once the accumulated χ²
	// exceeds it across ≥3 frames.
	gradualRel, gradualHigh = 8, 0.12
	// sceneSim is the histogram-intersection similarity above which two
	// adjacent shots belong to the same scene.
	sceneSim = 0.55
)

// Boundary is a detected shot boundary.
type Boundary struct {
	// Frame is the first frame of the new shot.
	Frame int
	// Gradual reports whether the boundary was found by the
	// twin-threshold (dissolve) detector rather than the cut detector.
	Gradual bool
	// Score is the distance evidence at the boundary.
	Score float64
}

// Shot is a maximal run of frames between boundaries.
type Shot struct {
	// Start and End delimit the shot as [Start, End).
	Start, End int
	// KeyFrame is the index of the shot's representative frame.
	KeyFrame int
}

// Len returns the shot length in frames.
func (s Shot) Len() int { return s.End - s.Start }

// Scene is a group of visually similar consecutive shots.
type Scene struct {
	// Shots are indexes into the parse's Shots slice.
	Shots []int
	// Start and End delimit the scene as [Start, End) in frames.
	Start, End int
}

// Parse is the full composition hierarchy of Fig. 3.
type Parse struct {
	// NumFrames is the analyzed stream length.
	NumFrames int
	// Boundaries are the detected shot boundaries in order.
	Boundaries []Boundary
	// Shots partition [0, NumFrames).
	Shots []Shot
	// Scenes partition the shots.
	Scenes []Scene
}

// ErrEmptyStream is returned when the source has no frames.
var ErrEmptyStream = errors.New("parsing: empty stream")

// Analyze consumes the source and produces the composition hierarchy.
func Analyze(src video.Source) (*Parse, error) {
	frames, err := video.Collect(src)
	if err != nil {
		return nil, fmt.Errorf("parsing: draining source: %w", err)
	}
	return AnalyzeFrames(frames)
}

// AnalyzeFrames is Analyze over pre-collected frames.
func AnalyzeFrames(frames []video.Frame) (*Parse, error) {
	if len(frames) == 0 {
		return nil, ErrEmptyStream
	}
	hists := make([]img.Histogram, len(frames))
	for i, f := range frames {
		hists[i] = f.Pixels.Hist()
	}
	// Per-transition distances: d[i] is the distance between frame i-1
	// and frame i, i ≥ 1.
	chi := make([]float64, len(frames))
	mad := make([]float64, len(frames))
	for i := 1; i < len(frames); i++ {
		chi[i] = hists[i-1].ChiSquare(hists[i])
		mad[i] = img.MeanAbsDiff(frames[i-1].Pixels, frames[i].Pixels) / 255
	}

	boundaries := detectBoundaries(chi, mad)
	shots := buildShots(len(frames), boundaries, hists)
	scenes := groupScenes(shots, hists)

	return &Parse{
		NumFrames:  len(frames),
		Boundaries: boundaries,
		Shots:      shots,
		Scenes:     scenes,
	}, nil
}

// detectBoundaries runs the cut detector and the gradual detector and
// merges their findings.
func detectBoundaries(chi, mad []float64) []Boundary {
	n := len(chi)
	var out []Boundary
	lastBoundary := -minShotLen

	// State for the gradual (twin-threshold) detector.
	gradStart := -1
	gradAccum := 0.0

	for i := 1; i < n; i++ {
		// Baseline from the trailing window, excluding i. The window
		// deliberately includes past boundary frames: one outlier among
		// Window samples barely moves the mean.
		lo := i - window
		if lo < 1 {
			lo = 1
		}
		meanChi, _ := meanStd(chi[lo:i])
		meanMad, _ := meanStd(mad[lo:i])
		chiThresh := math.Max(cutChiRel*meanChi, chiFloor)
		madThresh := math.Max(cutMadRel*meanMad, madFloor)

		isCut := chi[i] > chiThresh && mad[i] > madThresh
		if isCut && i-lastBoundary >= minShotLen {
			out = append(out, Boundary{Frame: i, Score: chi[i]})
			lastBoundary = i
			gradStart, gradAccum = -1, 0
			continue
		}

		// Gradual: sustained moderate χ² elevation accumulating to a
		// large total change (dissolves move the histogram steadily
		// without big per-frame pixel jumps).
		gradLow := math.Max(gradualRel*meanChi, 0.002)
		if chi[i] > gradLow {
			if gradStart < 0 {
				gradStart = i
				gradAccum = 0
			}
			gradAccum += chi[i]
			if gradAccum > gradualHigh && i-gradStart >= 2 &&
				gradStart-lastBoundary >= minShotLen {
				out = append(out, Boundary{Frame: gradStart, Gradual: true, Score: gradAccum})
				lastBoundary = gradStart
				gradStart, gradAccum = -1, 0
			}
		} else {
			gradStart, gradAccum = -1, 0
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x].Frame < out[y].Frame })
	return out
}

// buildShots partitions the stream at the boundaries and picks key
// frames.
func buildShots(n int, bs []Boundary, hists []img.Histogram) []Shot {
	starts := []int{0}
	for _, b := range bs {
		if b.Frame > starts[len(starts)-1] {
			starts = append(starts, b.Frame)
		}
	}
	shots := make([]Shot, 0, len(starts))
	for i, s := range starts {
		e := n
		if i+1 < len(starts) {
			e = starts[i+1]
		}
		shots = append(shots, Shot{
			Start:    s,
			End:      e,
			KeyFrame: keyFrame(hists, s, e),
		})
	}
	return shots
}

// keyFrame picks the frame of [start, end) whose histogram is closest to
// the shot's mean histogram — the standard centroid key-frame rule.
func keyFrame(hists []img.Histogram, start, end int) int {
	if end-start == 1 {
		return start
	}
	// Mean histogram.
	var mean [256]float64
	for i := start; i < end; i++ {
		t := float64(hists[i].Total())
		if t == 0 {
			continue
		}
		for b := 0; b < 256; b++ {
			mean[b] += float64(hists[i][b]) / t
		}
	}
	cnt := float64(end - start)
	for b := range mean {
		mean[b] /= cnt
	}
	best, bestD := start, math.Inf(1)
	for i := start; i < end; i++ {
		t := float64(hists[i].Total())
		var d float64
		for b := 0; b < 256; b++ {
			p := float64(hists[i][b]) / t
			q := mean[b]
			if p+q > 0 {
				d += (p - q) * (p - q) / (p + q)
			}
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// groupScenes merges consecutive shots whose key-frame histograms are
// similar (histogram intersection above SceneSim).
func groupScenes(shots []Shot, hists []img.Histogram) []Scene {
	if len(shots) == 0 {
		return nil
	}
	scenes := []Scene{{Shots: []int{0}, Start: shots[0].Start, End: shots[0].End}}
	for i := 1; i < len(shots); i++ {
		cur := &scenes[len(scenes)-1]
		prevKey := hists[shots[i-1].KeyFrame]
		curKey := hists[shots[i].KeyFrame]
		if prevKey.Intersection(curKey) >= sceneSim {
			cur.Shots = append(cur.Shots, i)
			cur.End = shots[i].End
		} else {
			scenes = append(scenes, Scene{Shots: []int{i}, Start: shots[i].Start, End: shots[i].End})
		}
	}
	return scenes
}

// meanStd returns the mean and standard deviation of xs (0,0 when empty).
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Metrics quantifies boundary detection against ground truth.
type Metrics struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	Precision      float64
	Recall         float64
	F1             float64
}

// Evaluate matches detected boundaries to ground-truth boundaries within
// a tolerance window (frames) and computes precision/recall/F1 — the
// standard shot-boundary benchmark protocol.
func Evaluate(detected []Boundary, truth []int, tolerance int) Metrics {
	var m Metrics
	usedDet := make([]bool, len(detected))
	for _, tb := range truth {
		matched := false
		for i, d := range detected {
			if usedDet[i] {
				continue
			}
			diff := d.Frame - tb
			if diff < 0 {
				diff = -diff
			}
			if diff <= tolerance {
				usedDet[i] = true
				matched = true
				break
			}
		}
		if matched {
			m.TruePositives++
		} else {
			m.FalseNegatives++
		}
	}
	for i := range detected {
		if !usedDet[i] {
			m.FalsePositives++
		}
	}
	if m.TruePositives+m.FalsePositives > 0 {
		m.Precision = float64(m.TruePositives) / float64(m.TruePositives+m.FalsePositives)
	}
	if m.TruePositives+m.FalseNegatives > 0 {
		m.Recall = float64(m.TruePositives) / float64(m.TruePositives+m.FalseNegatives)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}
