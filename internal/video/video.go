// Package video implements DiEvent's acquisition substrate: a synthetic
// frame renderer that turns simulated scene states into the 640×480
// grayscale frames the paper's surveillance cameras produced, sensor
// noise, multi-camera capture, an editable multi-shot
// composition for the video-parsing experiments, and a raw container
// codec for persistence.
package video

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/camera"
	"repro/internal/emotion"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/scene"
)

// Frame is one captured video frame with its provenance.
type Frame struct {
	// Index is the frame number within its stream.
	Index int
	// Time is the capture timestamp.
	Time time.Duration
	// Camera is the name of the capturing camera.
	Camera string
	// Pixels is the grayscale image.
	Pixels *img.Gray
}

// Source is a pull-based stream of frames. Next returns io-style
// semantics: (frame, nil) until exhaustion, then (zero, ErrEnd).
type Source interface {
	// Next returns the next frame or ErrEnd after the last one.
	Next() (Frame, error)
	// Len returns the total number of frames the source will deliver,
	// or -1 when unknown.
	Len() int
}

// ErrEnd signals stream exhaustion.
var ErrEnd = errors.New("video: end of stream")

// RenderOptions tune the synthetic sensor.
type RenderOptions struct {
	// NoiseSigma is the Gaussian sensor-noise σ in intensity levels
	// (0 disables).
	NoiseSigma float64
}

// The gray levels of the wall and of the table surface.
const (
	background = 45
	tableTone  = 95
)

// Renderer draws simulated frame states as seen by one camera. All
// Render methods are safe for concurrent use — rendering is a pure
// function of the frame state, and the frame pool is its own
// synchronisation.
type Renderer struct {
	cam *camera.Camera
	sim *scene.Simulator
	opt RenderOptions

	// frames recycles full-size frame buffers between AcquireFrame and
	// ReleaseFrame so steady-state rendering allocates no pixel memory.
	frames sync.Pool
}

// NewRenderer builds a renderer for one camera over a simulation.
func NewRenderer(sim *scene.Simulator, cam *camera.Camera, opt RenderOptions) *Renderer {
	return &Renderer{cam: cam, sim: sim, opt: opt}
}

// AcquireFrame returns a frame-sized buffer from the renderer's pool
// (allocating when the pool is empty). Pair with ReleaseFrame.
func (r *Renderer) AcquireFrame() *img.Gray {
	if g, ok := r.frames.Get().(*img.Gray); ok {
		return g
	}
	return img.New(r.cam.In.W, r.cam.In.H)
}

// ReleaseFrame returns a buffer obtained from AcquireFrame (or any
// frame-sized image) to the pool. The caller must not use g afterwards.
func (r *Renderer) ReleaseFrame(g *img.Gray) {
	if g != nil && g.W == r.cam.In.W && g.H == r.cam.In.H {
		r.frames.Put(g)
	}
}

// RenderState draws an arbitrary frame state (useful for single-frame
// tooling); frame index governs noise seeding and lighting phase.
func (r *Renderer) RenderState(fs scene.FrameState) *img.Gray {
	return r.RenderStateInto(fs, nil)
}

// RenderStateInto is RenderState drawing into g (reused when its buffer
// is large enough; nil allocates). It returns the rendered frame.
func (r *Renderer) RenderStateInto(fs scene.FrameState, g *img.Gray) *img.Gray {
	g = img.Ensure(g, r.cam.In.W, r.cam.In.H)
	g.Fill(background)

	r.drawTable(g)

	// Draw persons far-to-near so nearer heads occlude farther ones.
	order := make([]int, len(fs.Persons))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			di := r.cam.Depth(fs.Persons[order[i]].Head.Position)
			dj := r.cam.Depth(fs.Persons[order[j]].Head.Position)
			if dj > di {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, idx := range order {
		p := fs.Persons[idx]
		r.drawPerson(g, p)
	}

	// Sensor noise, seeded per (frame, camera) so every render of the
	// same frame is identical.
	if r.opt.NoiseSigma > 0 {
		rng := newNoiseRand(fs.Index, r.cam.Name)
		g.AddNoise(r.opt.NoiseSigma, rng.NormFloat64)
	}
	return g
}

// Render draws frame i of the simulation.
func (r *Renderer) Render(i int) Frame {
	fs := r.sim.FrameState(i)
	return Frame{
		Index:  i,
		Time:   fs.Time,
		Camera: r.cam.Name,
		Pixels: r.RenderState(fs),
	}
}

// drawTable projects the table outline onto the image and fills it.
func (r *Renderer) drawTable(g *img.Gray) {
	sc := r.sim.Scenario()
	hw, hd := sc.TableW/2, sc.TableD/2
	corners := [4]geom.Vec3{
		{X: -hw, Y: -hd, Z: sc.TableH},
		{X: hw, Y: -hd, Z: sc.TableH},
		{X: hw, Y: hd, Z: sc.TableH},
		{X: -hw, Y: hd, Z: sc.TableH},
	}
	// Project corners; if any is behind the camera, skip the table
	// (cannot happen with the standard rigs).
	var px [4]geom.Vec2
	for i, c := range corners {
		p, err := r.cam.Project(c)
		if err != nil {
			return
		}
		px[i] = p
	}
	fillQuad(g, px[:], tableTone)
}

// drawPerson draws a participant: a dark torso ellipse under an
// expressive face whose geometry comes from the shared emotion renderer.
func (r *Renderer) drawPerson(g *img.Gray, p scene.PersonState) {
	headPx, err := r.cam.Project(p.Head.Position)
	if err != nil || !r.cam.InFrame(headPx) {
		return
	}
	rad := r.cam.ProjectedRadius(p.Head.Position, p.HeadRadius)
	if rad < 1.5 {
		return
	}
	// Torso: an ellipse below the head, slightly darker than the face.
	torsoTone := uint8(maxInt(10, int(p.FaceTone)-70))
	g.FillEllipse(headPx.X, headPx.Y+3.1*rad, 2.0*rad, 2.4*rad, 0, torsoTone)

	// Face: shared expressive renderer; variant keyed on person ID so
	// each participant has a stable individual face.
	box := img.Rect{
		X: int(headPx.X - rad),
		Y: int(headPx.Y - rad*1.2),
		W: int(2 * rad),
		H: int(2.4 * rad),
	}
	emotion.RenderFaceInto(g, box, p.FaceTone, p.Emotion, uint64(p.ID)*7919+1)
}

// fillQuad rasterises a convex quadrilateral by scanline.
func fillQuad(g *img.Gray, pts []geom.Vec2, tone uint8) {
	if len(pts) != 4 {
		return
	}
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	y0 := maxInt(0, int(minY))
	y1 := minInt(g.H-1, int(maxY))
	for y := y0; y <= y1; y++ {
		fy := float64(y) + 0.5
		// Collect intersections of the scanline with quad edges (a
		// convex quad crosses a scanline at most 4 times — fixed array
		// keeps this off the heap).
		var xs [4]float64
		nx := 0
		for i := 0; i < 4; i++ {
			a, b := pts[i], pts[(i+1)%4]
			if (a.Y <= fy && b.Y > fy) || (b.Y <= fy && a.Y > fy) {
				t := (fy - a.Y) / (b.Y - a.Y)
				xs[nx] = a.X + t*(b.X-a.X)
				nx++
			}
		}
		if nx < 2 {
			continue
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:nx] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		for x := maxInt(0, int(lo)); x <= minInt(g.W-1, int(hi)); x++ {
			g.Pix[y*g.W+x] = tone
		}
	}
}

// renderSource streams rendered frames in order.
type renderSource struct {
	r   *Renderer
	i   int
	n   int
	off int
}

// NewSourceRange streams frames [from, to).
func NewSourceRange(r *Renderer, from, to int) (Source, error) {
	if from < 0 || to > r.sim.NumFrames() || from >= to {
		return nil, fmt.Errorf("video: range [%d,%d) invalid for %d frames: %w",
			from, to, r.sim.NumFrames(), ErrEnd)
	}
	return &renderSource{r: r, i: 0, n: to - from, off: from}, nil
}

func (s *renderSource) Next() (Frame, error) {
	if s.i >= s.n {
		return Frame{}, ErrEnd
	}
	f := s.r.Render(s.off + s.i)
	f.Index = s.i
	s.i++
	return f, nil
}

func (s *renderSource) Len() int { return s.n }

// Collect drains a source into a slice (testing/tooling helper).
func Collect(s Source) ([]Frame, error) {
	var out []Frame
	if n := s.Len(); n > 0 {
		out = make([]Frame, 0, n)
	}
	for {
		f, err := s.Next()
		if errors.Is(err, ErrEnd) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// noiseRand gives per-(frame, camera) deterministic Gaussian noise.
type noiseRand struct{ state uint64 }

func newNoiseRand(frame int, cam string) *noiseRand {
	h := uint64(14695981039346656037)
	for _, b := range []byte(cam) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return &noiseRand{state: h ^ uint64(frame)*0x9E3779B97F4A7C15}
}

func (r *noiseRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NormFloat64 returns an approximately standard-normal sample
// (Irwin–Hall sum of 12 uniforms; exact tails don't matter for sensor
// noise).
func (r *noiseRand) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += float64(r.next()>>11) / (1 << 53)
	}
	return s - 6
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
