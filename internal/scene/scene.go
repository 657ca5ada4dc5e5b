// Package scene simulates dining social events: a room with a table,
// seated participants with scripted gaze behaviour, head-pose dynamics
// and emotion processes. It substitutes for the recorded surveillance
// video the paper's prototype used (see DESIGN.md §1) and doubles as the
// ground-truth oracle for every experiment: each frame's true head poses,
// gaze targets, emotions and activity phase are known exactly.
package scene

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/emotion"
	"repro/internal/geom"
)

// DefaultHeadRadius is the head-sphere radius (metres) of paper Eq. 3 —
// an average adult head modelled as a 12 cm sphere.
const DefaultHeadRadius = 0.12

// PersonSpec describes one participant: identity, display colour (the
// paper identifies prototype participants by shirt colour), and seat.
type PersonSpec struct {
	// ID is the participant index, 0-based; P1 is ID 0.
	ID int
	// Name is the paper-style label ("P1").
	Name string
	// Color is the display colour used by the prototype figures
	// ("yellow", "blue", "green", "black").
	Color string
	// Seat is the head rest position in world coordinates (metres).
	Seat geom.Vec3
	// HeadRadius is the eye-contact sphere radius (paper Eq. 3).
	HeadRadius float64
	// Intensity is the base gray level the renderer uses for this
	// person's face (identity cue for face recognition).
	FaceTone uint8
}

// TargetKind says what a participant's gaze is scripted to rest on.
type TargetKind uint8

// Gaze target kinds.
const (
	// LookAtPerson aims at another participant's head.
	LookAtPerson TargetKind = iota
	// LookAtTable aims at the participant's plate on the table.
	LookAtTable
	// LookAway aims at a fixed point away from the table (distraction).
	LookAway
)

// GazeTarget is a scripted gaze destination.
type GazeTarget struct {
	Kind TargetKind
	// Person is the target participant ID, valid when Kind == LookAtPerson.
	Person int
}

// AtPerson builds a person-directed gaze target.
func AtPerson(id int) GazeTarget { return GazeTarget{Kind: LookAtPerson, Person: id} }

// AtTable builds a plate-directed gaze target.
func AtTable() GazeTarget { return GazeTarget{Kind: LookAtTable} }

// Away builds a distraction gaze target.
func Away() GazeTarget { return GazeTarget{Kind: LookAway} }

// Phase is the dining-activity phase of a frame, the hidden state the HMM
// baseline (Gao et al. [16]) tries to recover.
type Phase uint8

// Dining phases in temporal order of a typical dinner.
const (
	PhaseArriving Phase = iota
	PhaseOrdering
	PhaseEating
	PhaseTalking
	PhasePaying

	numPhases
)

// NumPhases is the number of dining-activity phases.
const NumPhases = int(numPhases)

var phaseNames = [NumPhases]string{"arriving", "ordering", "eating", "talking", "paying"}

// String returns the phase name.
func (p Phase) String() string {
	if int(p) >= NumPhases {
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
	return phaseNames[p]
}

// Segment scripts behaviour from frame Start (inclusive) until the next
// segment's Start: per-person gaze targets, emotions, the speaker, and
// the dining phase.
type Segment struct {
	Start int
	// Gaze maps participant ID → scripted target. Persons absent from
	// the map keep their previous target.
	Gaze map[int]GazeTarget
	// Emotions maps participant ID → scripted emotion; absent persons
	// keep their previous emotion.
	Emotions map[int]emotion.Label
	// Speaker is the ID of the person speaking, or -1 for silence.
	Speaker int
	// Phase is the dining-activity phase.
	Phase Phase
}

// Scenario is a complete scripted dining event.
type Scenario struct {
	Name    string
	Persons []PersonSpec
	// Segments must be sorted by Start; the first must start at 0.
	Segments []Segment
	// NumFrames is the total length (paper prototype: 610).
	NumFrames int
	// FPS is the capture rate (paper: 25).
	FPS float64
	// TableW, TableD are the table dimensions (metres), centred at the
	// world origin with top at TableH.
	TableW, TableD, TableH float64
	// RoomW, RoomD are the room dimensions (metres).
	RoomW, RoomD float64
	// Seed drives all per-frame jitter; same seed → identical event.
	Seed int64
	// HeadJitterDeg is the σ of per-frame head-orientation jitter in
	// degrees (models natural micro-movement).
	HeadJitterDeg float64
}

// Validation errors.
var (
	ErrNoPersons   = errors.New("scene: scenario has no participants")
	ErrNoSegments  = errors.New("scene: scenario has no segments")
	ErrBadSegments = errors.New("scene: segments malformed")
	ErrBadFrames   = errors.New("scene: frame count must be positive")
)

// Validate checks scenario invariants.
func (sc *Scenario) Validate() error {
	if len(sc.Persons) == 0 {
		return ErrNoPersons
	}
	ids := make(map[int]bool, len(sc.Persons))
	for _, p := range sc.Persons {
		if p.ID < 0 || p.Name == "" {
			return fmt.Errorf("scene: person %+v invalid: %w", p, ErrBadSegments)
		}
		if ids[p.ID] {
			return fmt.Errorf("scene: duplicate person ID %d: %w", p.ID, ErrBadSegments)
		}
		ids[p.ID] = true
		if p.HeadRadius <= 0 {
			return fmt.Errorf("scene: person %s head radius %v: %w", p.Name, p.HeadRadius, ErrBadSegments)
		}
	}
	if sc.NumFrames <= 0 {
		return ErrBadFrames
	}
	if sc.FPS <= 0 {
		return fmt.Errorf("scene: fps %v: %w", sc.FPS, ErrBadFrames)
	}
	if len(sc.Segments) == 0 {
		return ErrNoSegments
	}
	if sc.Segments[0].Start != 0 {
		return fmt.Errorf("scene: first segment starts at %d: %w", sc.Segments[0].Start, ErrBadSegments)
	}
	if !sort.SliceIsSorted(sc.Segments, func(i, j int) bool {
		return sc.Segments[i].Start < sc.Segments[j].Start
	}) {
		return fmt.Errorf("scene: segments not sorted: %w", ErrBadSegments)
	}
	for i := 1; i < len(sc.Segments); i++ {
		if sc.Segments[i].Start == sc.Segments[i-1].Start {
			return fmt.Errorf("scene: duplicate segment start %d: %w", sc.Segments[i].Start, ErrBadSegments)
		}
	}
	for _, seg := range sc.Segments {
		for id, g := range seg.Gaze {
			if !ids[id] {
				return fmt.Errorf("scene: segment@%d scripts unknown person %d: %w", seg.Start, id, ErrBadSegments)
			}
			if g.Kind == LookAtPerson {
				if !ids[g.Person] {
					return fmt.Errorf("scene: segment@%d targets unknown person %d: %w", seg.Start, g.Person, ErrBadSegments)
				}
				if g.Person == id {
					return fmt.Errorf("scene: segment@%d person %d targets self: %w", seg.Start, id, ErrBadSegments)
				}
			}
		}
	}
	return nil
}

// Person returns the spec for an ID.
func (sc *Scenario) Person(id int) (PersonSpec, bool) {
	for _, p := range sc.Persons {
		if p.ID == id {
			return p, true
		}
	}
	return PersonSpec{}, false
}

// PersonState is the ground-truth state of one participant in one frame.
type PersonState struct {
	ID    int
	Name  string
	Color string
	// Head is the true head pose in the world frame; Forward() is the
	// facing direction.
	Head geom.Pose
	// HeadRadius is the eye-contact sphere radius.
	HeadRadius float64
	// Gaze is the true unit gaze direction in the world frame.
	Gaze geom.Vec3
	// Target is the scripted gaze target (ground truth).
	Target GazeTarget
	// Emotion is the scripted emotion.
	Emotion emotion.Label
	// Speaking reports whether this person is the scripted speaker.
	Speaking bool
	// FaceTone is the person's identity gray level for rendering.
	FaceTone uint8
}

// FrameState is the ground truth of a single frame.
type FrameState struct {
	Index   int
	Time    time.Duration
	Phase   Phase
	Persons []PersonState
}

// TrueLookAt returns the ground-truth look-at matrix of the frame:
// M[x][y] = 1 iff Px's scripted target is Py (indices are positions in
// Persons order, which follows ascending ID).
func (f FrameState) TrueLookAt() [][]int {
	n := len(f.Persons)
	idx := make(map[int]int, n)
	for i, p := range f.Persons {
		idx[p.ID] = i
	}
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for i, p := range f.Persons {
		if p.Target.Kind == LookAtPerson {
			if j, ok := idx[p.Target.Person]; ok {
				m[i][j] = 1
			}
		}
	}
	return m
}
