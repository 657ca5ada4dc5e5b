package scene

import (
	"errors"
	"math"
	"testing"

	"repro/internal/emotion"
	"repro/internal/geom"
)

func validScenario() Scenario {
	return Scenario{
		Name: "t",
		Persons: []PersonSpec{
			{ID: 0, Name: "P1", Seat: geom.V3(1, 0, 1.2), HeadRadius: 0.12},
			{ID: 1, Name: "P2", Seat: geom.V3(-1, 0, 1.2), HeadRadius: 0.12},
		},
		Segments: []Segment{
			{Start: 0, Gaze: map[int]GazeTarget{0: AtPerson(1), 1: AtPerson(0)}, Speaker: -1},
		},
		NumFrames: 50, FPS: 25,
		TableW: 1.8, TableD: 1.0, TableH: 0.75, RoomW: 6, RoomD: 5,
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	sc := validScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want error
	}{
		{"no persons", func(s *Scenario) { s.Persons = nil }, ErrNoPersons},
		{"no segments", func(s *Scenario) { s.Segments = nil }, ErrNoSegments},
		{"zero frames", func(s *Scenario) { s.NumFrames = 0 }, ErrBadFrames},
		{"zero fps", func(s *Scenario) { s.FPS = 0 }, ErrBadFrames},
		{"dup person", func(s *Scenario) {
			s.Persons = append(s.Persons, PersonSpec{ID: 0, Name: "dup", HeadRadius: 0.12})
		}, ErrBadSegments},
		{"bad head radius", func(s *Scenario) { s.Persons[0].HeadRadius = 0 }, ErrBadSegments},
		{"first segment not 0", func(s *Scenario) { s.Segments[0].Start = 5 }, ErrBadSegments},
		{"self target", func(s *Scenario) {
			s.Segments[0].Gaze[0] = AtPerson(0)
		}, ErrBadSegments},
		{"unknown target", func(s *Scenario) {
			s.Segments[0].Gaze[0] = AtPerson(9)
		}, ErrBadSegments},
		{"unknown person scripted", func(s *Scenario) {
			s.Segments[0].Gaze[7] = AtTable()
		}, ErrBadSegments},
		{"unsorted segments", func(s *Scenario) {
			s.Segments = append(s.Segments, Segment{Start: 30}, Segment{Start: 10})
		}, ErrBadSegments},
		{"duplicate starts", func(s *Scenario) {
			s.Segments = append(s.Segments, Segment{Start: 0})
		}, ErrBadSegments},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := validScenario()
			c.mut(&sc)
			if err := sc.Validate(); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	sc := PrototypeScenario()
	s1, err := NewSimulator(sc)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSimulator(sc)
	for _, i := range []int{0, 99, 250, 375, 609} {
		a, b := s1.FrameState(i), s2.FrameState(i)
		for j := range a.Persons {
			if !a.Persons[j].Head.ApproxEq(b.Persons[j].Head, 0) {
				t.Fatalf("frame %d person %d head differs between identical sims", i, j)
			}
			if a.Persons[j].Gaze != b.Persons[j].Gaze {
				t.Fatalf("frame %d person %d gaze differs", i, j)
			}
		}
	}
}

func TestSimulatorRandomAccessMatchesSequential(t *testing.T) {
	s, err := NewSimulator(PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	want := s.FrameState(300)
	// Access out of order first.
	_ = s.FrameState(500)
	_ = s.FrameState(10)
	got := s.FrameState(300)
	for j := range want.Persons {
		if !got.Persons[j].Head.ApproxEq(want.Persons[j].Head, 0) {
			t.Fatal("frame state depends on access order")
		}
	}
}

func TestSimulatorClampsFrameIndex(t *testing.T) {
	s, _ := NewSimulator(validScenario())
	if got := s.FrameState(-5).Index; got != 0 {
		t.Errorf("negative index clamps to %d", got)
	}
	if got := s.FrameState(1000).Index; got != 49 {
		t.Errorf("overflow index clamps to %d", got)
	}
}

func TestGazeAimsAtTarget(t *testing.T) {
	s, _ := NewSimulator(validScenario())
	fs := s.FrameState(10)
	p0, p1 := fs.Persons[0], fs.Persons[1]
	// P0's gaze must point from P0's seat toward P1's head.
	want := p1.Head.Position.Sub(p0.Head.Position).Unit()
	if !p0.Gaze.ApproxEq(want, 1e-9) {
		t.Errorf("gaze = %v, want %v", p0.Gaze, want)
	}
	// Head forward should roughly align with gaze (within jitter).
	if ang := math.Acos(math.Min(1, p0.Head.Forward().Dot(p0.Gaze))); ang > geom.Deg2Rad(5) {
		t.Errorf("head forward off gaze by %v°", geom.Rad2Deg(ang))
	}
}

func TestTrueLookAtMatrix(t *testing.T) {
	s, _ := NewSimulator(validScenario())
	m := s.FrameState(0).TrueLookAt()
	// Mutual gaze: both off-diagonal entries set.
	if m[0][1] != 1 || m[1][0] != 1 {
		t.Errorf("matrix = %v, want mutual", m)
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Error("diagonal must be zero")
	}
}

func TestScriptStatePersistsAcrossSegments(t *testing.T) {
	sc := validScenario()
	sc.NumFrames = 100
	// Second segment only changes person 0; person 1 keeps target.
	sc.Segments = append(sc.Segments, Segment{
		Start:    50,
		Gaze:     map[int]GazeTarget{0: AtTable()},
		Emotions: map[int]emotion.Label{0: emotion.Happy},
		Speaker:  0,
	})
	s, err := NewSimulator(sc)
	if err != nil {
		t.Fatal(err)
	}
	fs := s.FrameState(75)
	p0, p1 := fs.Persons[0], fs.Persons[1]
	if p0.Target.Kind != LookAtTable {
		t.Error("p0 should have switched to table")
	}
	if p1.Target.Kind != LookAtPerson || p1.Target.Person != 0 {
		t.Error("p1 should keep previous target")
	}
	if p0.Emotion != emotion.Happy {
		t.Error("p0 emotion should update")
	}
	if !p0.Speaking || p1.Speaking {
		t.Error("speaker flag wrong")
	}
}

func TestPersonLookups(t *testing.T) {
	sc := validScenario()
	if _, ok := sc.Person(0); !ok {
		t.Error("Person(0) should exist")
	}
	if _, ok := sc.Person(42); ok {
		t.Error("Person(42) should not exist")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseEating.String() != "eating" {
		t.Error("phase name wrong")
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase should still render")
	}
}

// TestTrueLookAtRowInvariant: in any scripted frame each participant
// looks at no more than one other participant and never at themselves.
func TestTrueLookAtRowInvariant(t *testing.T) {
	sims := []*Simulator{}
	s1, err := NewSimulator(PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	sims = append(sims, s1)
	dc, err := DinnerScenario(DinnerOptions{Persons: 6, Frames: 1200, Seed: 17, Enjoyment: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSimulator(dc)
	if err != nil {
		t.Fatal(err)
	}
	sims = append(sims, s2)
	for _, sim := range sims {
		for f := 0; f < sim.NumFrames(); f += 7 {
			m := sim.FrameState(f).TrueLookAt()
			for i := range m {
				row := 0
				for j := range m[i] {
					if i == j && m[i][j] != 0 {
						t.Fatalf("frame %d: self gaze", f)
					}
					row += m[i][j]
				}
				if row > 1 {
					t.Fatalf("frame %d: person %d looks at %d targets", f, i, row)
				}
			}
		}
	}
}
