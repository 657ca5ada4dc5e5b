package scene

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/emotion"
	"repro/internal/geom"
)

// Simulator evaluates a Scenario frame by frame. Frame states are a pure
// function of (scenario, frame index): random jitter is derived from a
// counter-based PRNG keyed on (seed, frame, person), so frames can be
// generated in any order, in parallel, and are bit-identical across runs.
type Simulator struct {
	sc      Scenario
	persons []PersonSpec // sorted by ID
	// states[k] is the cumulative script in force from Segments[k].Start
	// until the next segment starts.
	states []scriptState
}

// NewSimulator validates the scenario and returns a simulator.
func NewSimulator(sc Scenario) (*Simulator, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("scene: invalid scenario %q: %w", sc.Name, err)
	}
	ps := make([]PersonSpec, len(sc.Persons))
	copy(ps, sc.Persons)
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
	return &Simulator{sc: sc, persons: ps, states: foldScript(sc.Segments, ps)}, nil
}

// Scenario returns the validated scenario.
func (s *Simulator) Scenario() Scenario { return s.sc }

// NumFrames returns the event length in frames.
func (s *Simulator) NumFrames() int { return s.sc.NumFrames }

// Persons returns the participant specs in ascending ID order.
func (s *Simulator) Persons() []PersonSpec {
	out := make([]PersonSpec, len(s.persons))
	copy(out, s.persons)
	return out
}

// scriptState is the cumulative script effective at one frame; gaze
// and emo are indexed in person (ascending ID) order.
type scriptState struct {
	gaze    []GazeTarget
	emo     []emotion.Label
	speaker int
	phase   Phase
}

// foldScript folds the segments in order into the state each one leaves
// in force. Per-person entries persist until overridden, matching how a
// human scripter thinks about a timeline; an entry for an ID that is
// no participant's is dropped, as no frame reads it.
func foldScript(segs []Segment, persons []PersonSpec) []scriptState {
	at := make(map[int]int, len(persons))
	for k, p := range persons {
		at[p.ID] = k
	}
	gaze := make([]GazeTarget, len(persons))
	emo := make([]emotion.Label, len(persons))
	for k := range persons {
		gaze[k], emo[k] = AtTable(), emotion.Neutral
	}
	states := make([]scriptState, len(segs))
	for n, seg := range segs {
		gaze, emo = append([]GazeTarget(nil), gaze...), append([]emotion.Label(nil), emo...)
		for id, g := range seg.Gaze {
			if k, ok := at[id]; ok {
				gaze[k] = g
			}
		}
		for id, e := range seg.Emotions {
			if k, ok := at[id]; ok {
				emo[k] = e
			}
		}
		states[n] = scriptState{gaze: gaze, emo: emo, speaker: seg.Speaker, phase: seg.Phase}
	}
	return states
}

// scriptAt returns the script in force at frame i ≥ 0: that of the last
// segment starting at or before i (Validate guarantees the first starts
// at 0 and the starts ascend).
func (s *Simulator) scriptAt(i int) *scriptState {
	segs := s.sc.Segments
	k := sort.Search(len(segs), func(k int) bool { return segs[k].Start > i })
	return &s.states[k-1]
}

// FrameState returns the ground truth for frame i. Frames outside
// [0, NumFrames) are clamped — stream consumers at boundaries prefer a
// repeated frame over a crash.
func (s *Simulator) FrameState(i int) FrameState {
	if i < 0 {
		i = 0
	}
	if i >= s.sc.NumFrames {
		i = s.sc.NumFrames - 1
	}
	st := s.scriptAt(i)
	fs := FrameState{
		Index:   i,
		Time:    time.Duration(float64(i) / s.sc.FPS * float64(time.Second)),
		Phase:   st.phase,
		Persons: make([]PersonState, 0, len(s.persons)),
	}
	for k, p := range s.persons {
		target := st.gaze[k]
		gazePoint := s.gazePoint(p, target)
		head := geom.LookAt(p.Seat, gazePoint)

		// Natural micro-movement: small deterministic per-frame jitter
		// of the head orientation (breathing, balance). The scripted
		// gaze *target* stays the truth; the head pose wobbles around
		// it the way a real head does.
		if s.sc.HeadJitterDeg > 0 {
			rng := newFrameRand(s.sc.Seed, uint64(i), uint64(p.ID))
			jy := rng.NormFloat64() * geom.Deg2Rad(s.sc.HeadJitterDeg)
			jp := rng.NormFloat64() * geom.Deg2Rad(s.sc.HeadJitterDeg)
			head.Orientation = head.Orientation.
				Mul(geom.RotZ(jy)).
				Mul(geom.RotY(jp))
		}

		fs.Persons = append(fs.Persons, PersonState{
			ID:         p.ID,
			Name:       p.Name,
			Color:      p.Color,
			Head:       head,
			HeadRadius: p.HeadRadius,
			Gaze:       gazePoint.Sub(p.Seat).Unit(),
			Target:     target,
			Emotion:    st.emo[k],
			Speaking:   st.speaker == p.ID,
			FaceTone:   p.FaceTone,
		})
	}
	return fs
}

// gazePoint resolves a scripted target to a world point.
func (s *Simulator) gazePoint(p PersonSpec, t GazeTarget) geom.Vec3 {
	switch t.Kind {
	case LookAtPerson:
		if q, ok := s.sc.Person(t.Person); ok {
			return q.Seat
		}
		return geom.V3(0, 0, s.sc.TableH)
	case LookAtTable:
		// The plate sits on the table edge nearest the person.
		dir := geom.V3(-p.Seat.X, -p.Seat.Y, 0).Unit()
		plate := p.Seat.Add(dir.Scale(0.35))
		plate.Z = s.sc.TableH
		return plate
	default: // LookAway: over the opposite shoulder, toward the wall.
		away := geom.V3(p.Seat.X, p.Seat.Y, 0).Unit().Scale(math.Max(s.sc.RoomW, s.sc.RoomD))
		away.Z = p.Seat.Z + 0.2
		return away
	}
}

// TrueSummary sums the ground-truth look-at matrices over all frames —
// the oracle for the paper's Fig. 9 summary matrix.
func (s *Simulator) TrueSummary() [][]int {
	n := len(s.persons)
	sum := make([][]int, n)
	for i := range sum {
		sum[i] = make([]int, n)
	}
	for i := 0; i < s.sc.NumFrames; i++ {
		m := s.FrameState(i).TrueLookAt()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				sum[a][b] += m[a][b]
			}
		}
	}
	return sum
}

// frameRand is a tiny counter-based PRNG (splitmix64 core) giving each
// (seed, frame, person) triple an independent deterministic stream. Unlike
// math/rand it needs no locking and no sequential draw order.
type frameRand struct {
	state uint64
	// cached spare normal (Box–Muller generates pairs)
	spare    float64
	hasSpare bool
}

func newFrameRand(seed int64, frame, person uint64) *frameRand {
	x := uint64(seed) ^ frame*0x9E3779B97F4A7C15 ^ person*0xBF58476D1CE4E5B9
	return &frameRand{state: x}
}

func (r *frameRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0,1).
func (r *frameRand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *frameRand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 1e-12 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}
