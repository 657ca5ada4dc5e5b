package video

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/img"
)

// Composition assembles an edited multi-shot video from several camera
// sources — the input class the paper's video-composition analysis
// (§II-B, Fig. 3) decomposes back into scenes, shots and key frames.
// Each shot takes frames from one source; consecutive shots are joined
// either by a hard cut or by a gradual dissolve, both of which the shot
// boundary detector must find.

// TransitionKind is how one shot hands over to the next.
type TransitionKind uint8

// Transition kinds.
const (
	// Cut is an instantaneous shot change.
	Cut TransitionKind = iota
	// Dissolve cross-fades over DissolveLen frames.
	Dissolve
)

// DissolveLen is the length of a gradual transition in frames.
const DissolveLen = 12

// Shot scripts one segment of the composition.
type Shot struct {
	// Source index into the composition's source list.
	Source int
	// Len is the shot length in frames (must be positive).
	Len int
	// TransitionIn is how this shot is entered (ignored for the first
	// shot).
	TransitionIn TransitionKind
}

// ErrBadComposition reports an invalid composition script.
var ErrBadComposition = errors.New("video: bad composition")

// Composition is a scripted edit over frame sources.
type Composition struct {
	frames []Frame
	// cutIndexes are the first frame index of every shot after the
	// first — the ground truth for shot-boundary detection.
	cutIndexes []int
}

// Compose materialises the edit. Sources must all yield identically
// sized frames and have at least the per-shot requested length remaining.
func Compose(sources []Source, shots []Shot) (*Composition, error) {
	if len(sources) == 0 || len(shots) == 0 {
		return nil, fmt.Errorf("video: empty sources or shots: %w", ErrBadComposition)
	}
	// Drain every source fully first (simplest correct approach; the
	// compositions used in experiments are small).
	mat := make([][]Frame, len(sources))
	for i, s := range sources {
		fs, err := Collect(s)
		if err != nil {
			return nil, fmt.Errorf("video: draining source %d: %w", i, err)
		}
		if len(fs) == 0 {
			return nil, fmt.Errorf("video: source %d empty: %w", i, ErrBadComposition)
		}
		mat[i] = fs
	}
	c := &Composition{}
	cursor := make([]int, len(sources)) // next unused frame per source
	var prevTail *img.Gray
	for si, shot := range shots {
		if shot.Source < 0 || shot.Source >= len(sources) {
			return nil, fmt.Errorf("video: shot %d references source %d: %w", si, shot.Source, ErrBadComposition)
		}
		if shot.Len <= 0 {
			return nil, fmt.Errorf("video: shot %d has length %d: %w", si, shot.Len, ErrBadComposition)
		}
		src := mat[shot.Source]
		if cursor[shot.Source]+shot.Len > len(src) {
			return nil, fmt.Errorf("video: shot %d exhausts source %d: %w", si, shot.Source, ErrBadComposition)
		}
		start := len(c.frames)
		if si > 0 {
			c.cutIndexes = append(c.cutIndexes, start)
		}
		for k := 0; k < shot.Len; k++ {
			f := src[cursor[shot.Source]+k]
			px := f.Pixels
			// Gradual entry: blend with the previous shot's tail frame.
			if si > 0 && shot.TransitionIn == Dissolve && k < DissolveLen && prevTail != nil {
				alpha := float64(k+1) / float64(DissolveLen+1)
				px = blend(prevTail, px, alpha)
			}
			c.frames = append(c.frames, Frame{
				Index:  len(c.frames),
				Time:   f.Time,
				Camera: f.Camera,
				Pixels: px,
			})
		}
		cursor[shot.Source] += shot.Len
		prevTail = c.frames[len(c.frames)-1].Pixels
	}
	return c, nil
}

// blend returns (1−α)·a + α·b.
func blend(a, b *img.Gray, alpha float64) *img.Gray {
	if a.W != b.W || a.H != b.H {
		b = b.Resize(a.W, a.H)
	}
	out := img.New(a.W, a.H)
	for i := range a.Pix {
		v := (1-alpha)*float64(a.Pix[i]) + alpha*float64(b.Pix[i])
		out.Pix[i] = uint8(math.Round(v))
	}
	return out
}

// TrueBoundaries returns the ground-truth first-frame indexes of every
// shot after the first.
func (c *Composition) TrueBoundaries() []int {
	out := make([]int, len(c.cutIndexes))
	copy(out, c.cutIndexes)
	return out
}

// Source returns the composition as a Source.
func (c *Composition) Source() Source {
	return &sliceSource{frames: c.frames}
}

// sliceSource serves frames from memory.
type sliceSource struct {
	frames []Frame
	i      int
}

func (s *sliceSource) Next() (Frame, error) {
	if s.i >= len(s.frames) {
		return Frame{}, ErrEnd
	}
	f := s.frames[s.i]
	s.i++
	return f, nil
}

func (s *sliceSource) Len() int { return len(s.frames) }
