package gaze

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/camera"
	"repro/internal/geom"
)

// Matrix is the paper's per-frame look-at matrix (Fig. 4): M[x][y] = 1
// iff participant x is looking at participant y, indices following the
// detector's person ordering. The diagonal is structurally zero.
type Matrix struct {
	// IDs maps matrix index → participant ID.
	IDs []int
	// M is the n×n binary matrix.
	M [][]int
}

// NewMatrix allocates an empty matrix over the given participant IDs.
// Rows share one flat backing array, so construction is three
// allocations regardless of n — this runs once per frame.
func NewMatrix(ids []int) Matrix {
	n := len(ids)
	m := make([][]int, n)
	flat := make([]int, n*n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return Matrix{IDs: append([]int(nil), ids...), M: m}
}

// index returns the matrix index of a participant ID, or -1.
func (m Matrix) index(id int) int {
	for i, v := range m.IDs {
		if v == id {
			return i
		}
	}
	return -1
}

// EyeContactPairs lists all mutual-gaze pairs (each once, lower ID
// first).
func (m Matrix) EyeContactPairs() [][2]int {
	var out [][2]int
	for i := range m.IDs {
		for j := i + 1; j < len(m.IDs); j++ {
			if m.M[i][j] == 1 && m.M[j][i] == 1 {
				out = append(out, [2]int{m.IDs[i], m.IDs[j]})
			}
		}
	}
	return out
}

// Edges lists all directed look-at edges as (fromID, toID).
func (m Matrix) Edges() [][2]int {
	var out [][2]int
	for i := range m.IDs {
		for j := range m.IDs {
			if m.M[i][j] == 1 {
				out = append(out, [2]int{m.IDs[i], m.IDs[j]})
			}
		}
	}
	return out
}

// Detector runs the paper's eye-contact procedure (§II-D.1): for every
// ordered pair (Pk, Pl) it re-expresses Pl's head into the frame of the
// camera observing Pk (Eq. 1–2) and intersects Pk's gaze ray with Pl's
// head sphere (Eq. 3–5). The procedure runs n(n−1) times per frame,
// exactly as the paper states.
type Detector struct {
	// RadiusScale multiplies every head radius before the sphere test.
	// 1.0 is the physical head (Eq. 3 verbatim); the default 2.0 gives
	// an effective ≈6° acceptance cone at cross-table distance, which
	// absorbs the gaze estimator's ≈3° noise while staying far below
	// the ≈90° angular separation between participants. Experiment T-B
	// ablates this choice.
	RadiusScale float64
}

// NewDetector returns a detector with the default effective radius.
func NewDetector() *Detector { return &Detector{RadiusScale: 2} }

// ErrMissingTransform reports an unresolvable camera pair.
var ErrMissingTransform = errors.New("gaze: cannot resolve camera transform")

// LookAt builds the frame's look-at matrix from per-camera observations.
// When a person has several observations (AllCameras estimators), the
// highest-confidence one represents them. Persons with no observation
// yield all-zero rows and columns.
func (d *Detector) LookAt(obs []Observation, rig *camera.Rig, ids []int) (Matrix, error) {
	m := NewMatrix(ids)
	best := make(map[int]Observation, len(ids))
	for _, o := range obs {
		if cur, ok := best[o.PersonID]; !ok || o.Confidence > cur.Confidence {
			best[o.PersonID] = o
		}
	}
	for i, kid := range ids {
		ok, have := best[kid]
		if !have {
			continue
		}
		for j, lid := range ids {
			if i == j {
				continue
			}
			ol, have := best[lid]
			if !have {
				continue
			}
			hit, err := d.test(ok, ol, rig)
			if err != nil {
				return m, fmt.Errorf("gaze: pair (P%d, P%d): %w", kid+1, lid+1, err)
			}
			if hit {
				m.M[i][j] = 1
			}
		}
	}
	return m, nil
}

// test implements the paper's Eq. 2–5 for one ordered pair: is k looking
// at l?
func (d *Detector) test(k, l Observation, rig *camera.Rig) (bool, error) {
	// Gaze ray of Pk in Pk's camera frame (Eq. 4: x = o + d·l).
	ray := geom.NewRay(k.HeadPos, k.GazeDir)

	// Pl's head position re-expressed in Pk's camera frame:
	// ¹HPl = ¹T₂ · ²HPl (Eq. 1/2).
	var headK geom.Vec3
	if k.Camera == l.Camera {
		headK = l.HeadPos
	} else {
		t, err := rig.Transform(k.Camera, l.Camera)
		if err != nil {
			return false, fmt.Errorf("%v: %w", err, ErrMissingTransform)
		}
		headK = t.ApplyPoint(l.HeadPos)
	}

	// Sphere test (Eq. 3, 5): w ∈ ℝ⁺ means two crossing points.
	sphere := geom.NewSphere(headK, l.HeadRadius*d.RadiusScale)
	return ray.IntersectSphere(sphere).Hit, nil
}

// Summary accumulates look-at matrices over frames — the paper's Fig. 9
// matrix, whose (x,y) entry counts frames where Px looked at Py.
type Summary struct {
	IDs    []int
	Counts [][]int
	Frames int
}

// NewSummary allocates a summary over participant IDs.
func NewSummary(ids []int) *Summary {
	n := len(ids)
	c := make([][]int, n)
	for i := range c {
		c[i] = make([]int, n)
	}
	return &Summary{IDs: append([]int(nil), ids...), Counts: c}
}

// Add accumulates one frame's matrix. Matrices over different ID sets
// are rejected.
func (s *Summary) Add(m Matrix) error {
	if len(m.IDs) != len(s.IDs) {
		return fmt.Errorf("gaze: summary over %d ids given %d: %w",
			len(s.IDs), len(m.IDs), ErrNoObservation)
	}
	for i := range s.IDs {
		if m.IDs[i] != s.IDs[i] {
			return fmt.Errorf("gaze: summary id mismatch at %d: %w", i, ErrNoObservation)
		}
	}
	for i := range s.Counts {
		for j := range s.Counts[i] {
			s.Counts[i][j] += m.M[i][j]
		}
	}
	s.Frames++
	return nil
}

// ColumnSums returns per-participant "was looked at" totals — the
// paper's dominance signal.
func (s *Summary) ColumnSums() []int {
	out := make([]int, len(s.IDs))
	for j := range s.IDs {
		for i := range s.IDs {
			out[j] += s.Counts[i][j]
		}
	}
	return out
}

// RowSums returns per-participant "looked at others" totals.
func (s *Summary) RowSums() []int {
	out := make([]int, len(s.IDs))
	for i := range s.IDs {
		for j := range s.IDs {
			out[i] += s.Counts[i][j]
		}
	}
	return out
}

// Dominant returns the participant ID with the maximal column sum — the
// paper identifies the meeting's dominant participant this way ("the
// yellow participant (P1) is the dominate of the meeting since the
// summation of the participant P1 column is the maximum").
func (s *Summary) Dominant() int {
	cols := s.ColumnSums()
	best, bestV := 0, -1
	for j, v := range cols {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return s.IDs[best]
}

// String renders the summary like the paper's Fig. 9 table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "")
	for _, id := range s.IDs {
		fmt.Fprintf(&b, "%6s", fmt.Sprintf("P%d", id+1))
	}
	b.WriteByte('\n')
	for i, id := range s.IDs {
		fmt.Fprintf(&b, "%6s", fmt.Sprintf("P%d", id+1))
		for j := range s.IDs {
			fmt.Fprintf(&b, "%6d", s.Counts[i][j])
		}
		b.WriteByte('\n')
	}
	cols := s.ColumnSums()
	fmt.Fprintf(&b, "%6s", "Σcol")
	for _, v := range cols {
		fmt.Fprintf(&b, "%6d", v)
	}
	b.WriteByte('\n')
	return b.String()
}
