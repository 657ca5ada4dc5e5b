package gaze

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/camera"
	"repro/internal/geom"
	"repro/internal/scene"
)

func protoSetup(t testing.TB) (*scene.Simulator, *camera.Rig, []int) {
	t.Helper()
	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sim, rig, []int{0, 1, 2, 3}
}

// rigCamera returns the rig's camera with the given name.
func rigCamera(t *testing.T, rig *camera.Rig, name string) *camera.Camera {
	t.Helper()
	for _, c := range rig.Cameras {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("rig has no camera %q", name)
	return nil
}

func TestObserveAllPersonsVisible(t *testing.T) {
	sim, rig, _ := protoSetup(t)
	est := NewEstimator(EstimatorOptions{Seed: 1})
	obs := est.Observe(sim.FrameState(250), rig)
	if len(obs) != 4 {
		t.Fatalf("observed %d persons, want 4", len(obs))
	}
	seen := map[int]bool{}
	for _, o := range obs {
		seen[o.PersonID] = true
		if o.Confidence <= 0 || o.Confidence > 1 {
			t.Errorf("confidence %v outside (0,1]", o.Confidence)
		}
		if math.Abs(o.GazeDir.Norm()-1) > 1e-9 {
			t.Errorf("gaze dir not unit: %v", o.GazeDir)
		}
	}
	if len(seen) != 4 {
		t.Error("duplicate person observations in best-view mode")
	}
}

func TestObserveAllCamerasMode(t *testing.T) {
	sim, rig, _ := protoSetup(t)
	est := NewEstimator(EstimatorOptions{Seed: 1, AllCameras: true})
	obs := est.Observe(sim.FrameState(250), rig)
	// Every person is visible to all 4 corner cameras in the prototype.
	if len(obs) != 16 {
		t.Errorf("observed %d, want 16 (4 persons × 4 cameras)", len(obs))
	}
}

func TestObservationNoiseIsDeterministic(t *testing.T) {
	sim, rig, _ := protoSetup(t)
	est1 := NewEstimator(EstimatorOptions{Seed: 7})
	est2 := NewEstimator(EstimatorOptions{Seed: 7})
	a := est1.Observe(sim.FrameState(100), rig)
	b := est2.Observe(sim.FrameState(100), rig)
	for i := range a {
		if a[i].HeadPos != b[i].HeadPos || a[i].GazeDir != b[i].GazeDir {
			t.Fatal("same seed should give identical observations")
		}
	}
	est3 := NewEstimator(EstimatorOptions{Seed: 8})
	c := est3.Observe(sim.FrameState(100), rig)
	if a[0].GazeDir == c[0].GazeDir {
		t.Error("different seeds should give different noise")
	}
}

func TestNoNoiseObservationsExact(t *testing.T) {
	sim, rig, _ := protoSetup(t)
	est := NewEstimator(NoNoise())
	fs := sim.FrameState(250)
	obs := est.Observe(fs, rig)
	for _, o := range obs {
		cam := rigCamera(t, rig, o.Camera)
		var truth scene.PersonState
		for _, p := range fs.Persons {
			if p.ID == o.PersonID {
				truth = p
			}
		}
		wantHead := cam.WorldToCam().ApplyPoint(truth.Head.Position)
		if !o.HeadPos.ApproxEq(wantHead, 1e-9) {
			t.Errorf("P%d head = %v, want %v", o.PersonID+1, o.HeadPos, wantHead)
		}
		wantGaze := cam.WorldToCam().ApplyDir(truth.Gaze).Unit()
		if !o.GazeDir.ApproxEq(wantGaze, 1e-9) {
			t.Errorf("P%d gaze = %v, want %v", o.PersonID+1, o.GazeDir, wantGaze)
		}
	}
}

func TestPerturbDirectionStatistics(t *testing.T) {
	rng := newObsRand(3, 1, 2, "C1")
	d := geom.V3(1, 0, 0)
	sigma := geom.Deg2Rad(3)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		p := perturbDirection(d, sigma, rng)
		if math.Abs(p.Norm()-1) > 1e-9 {
			t.Fatal("perturbed direction not unit")
		}
		sum += math.Acos(math.Min(1, p.Dot(d)))
	}
	meanErr := geom.Rad2Deg(sum / n)
	// Mean angular error of a 2-D Gaussian with σ=3° is σ·√(π/2) ≈ 3.76°.
	if meanErr < 2.5 || meanErr > 5 {
		t.Errorf("mean angular error = %v°, want ≈ 3.8°", meanErr)
	}
}

// TestLookAtMatchesGroundTruthNoNoise: with exact observations, the
// detected look-at matrix must equal the scripted ground truth at the
// paper's two reference frames.
func TestLookAtMatchesGroundTruthNoNoise(t *testing.T) {
	sim, rig, ids := protoSetup(t)
	est := NewEstimator(NoNoise())
	det := NewDetector()
	for _, frame := range []int{250, 375} {
		fs := sim.FrameState(frame)
		obs := est.Observe(fs, rig)
		m, err := det.LookAt(obs, rig, ids)
		if err != nil {
			t.Fatal(err)
		}
		truth := fs.TrueLookAt()
		for i := range ids {
			for j := range ids {
				if m.M[i][j] != truth[i][j] {
					t.Errorf("frame %d: M[%d][%d] = %d, truth %d",
						frame, i, j, m.M[i][j], truth[i][j])
				}
			}
		}
	}
}

func TestLookAtFig7Configuration(t *testing.T) {
	// Under realistic noise single frames flicker (long cross-table
	// edges detect at ≈85%), so, like the pipeline's temporal layer, we
	// majority-vote over a short window around t = 10 s. The window
	// stays well inside the scripted Fig. 7 segment (frames 207–299).
	sim, rig, ids := protoSetup(t)
	est := NewEstimator(EstimatorOptions{Seed: 42}) // realistic noise
	det := NewDetector()
	votes := NewSummary(ids)
	for f := 245; f <= 255; f++ {
		obs := est.Observe(sim.FrameState(f), rig)
		m, err := det.LookAt(obs, rig, ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := votes.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	maj := NewMatrix(ids)
	for i := range ids {
		for j := range ids {
			if votes.Counts[i][j]*2 > votes.Frames {
				maj.M[i][j] = 1
			}
		}
	}
	// Fig. 7: yellow(0) ↔ green(2) eye contact; blue(1) → green;
	// black(3) → blue.
	if maj.M[0][2] != 1 || maj.M[2][0] != 1 {
		t.Errorf("expected yellow-green eye contact; votes: %v", votes.Counts)
	}
	pairs := maj.EyeContactPairs()
	if len(pairs) != 1 || pairs[0] != [2]int{0, 2} {
		t.Errorf("EC pairs = %v, want [[0 2]]", pairs)
	}
	if maj.M[1][2] != 1 || maj.M[3][1] != 1 {
		t.Errorf("Fig. 7 directed edges missing: %v", maj.M)
	}
}

func TestLookAtCrossCameraTransformChain(t *testing.T) {
	// Force observations from *different* cameras and verify the Eq. 2
	// chain still detects the scripted eye contact.
	sim, rig, ids := protoSetup(t)
	fs := sim.FrameState(250)
	det := NewDetector()

	// Build exact observations manually: P1 from C1, P3 from C3, etc.
	camFor := map[int]string{0: "C1", 1: "C2", 2: "C3", 3: "C4"}
	var obs []Observation
	for _, p := range fs.Persons {
		cam := rigCamera(t, rig, camFor[p.ID])
		w2c := cam.WorldToCam()
		obs = append(obs, Observation{
			PersonID:   p.ID,
			Camera:     cam.Name,
			HeadPos:    w2c.ApplyPoint(p.Head.Position),
			GazeDir:    w2c.ApplyDir(p.Gaze),
			HeadRadius: p.HeadRadius,
			Confidence: 1,
		})
	}
	m, err := det.LookAt(obs, rig, ids)
	if err != nil {
		t.Fatal(err)
	}
	truth := fs.TrueLookAt()
	for i := range ids {
		for j := range ids {
			if m.M[i][j] != truth[i][j] {
				t.Errorf("cross-camera M[%d][%d] = %d, truth %d", i, j, m.M[i][j], truth[i][j])
			}
		}
	}
}

func TestLookAtHandlesMissingPerson(t *testing.T) {
	sim, rig, ids := protoSetup(t)
	est := NewEstimator(NoNoise())
	obs := est.Observe(sim.FrameState(250), rig)
	// Drop P2's observations entirely.
	var filtered []Observation
	for _, o := range obs {
		if o.PersonID != 1 {
			filtered = append(filtered, o)
		}
	}
	det := NewDetector()
	m, err := det.LookAt(filtered, rig, ids)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ids {
		if m.M[1][j] != 0 || m.M[j][1] != 0 {
			t.Error("missing person should have zero row and column")
		}
	}
	// Remaining relations survive: P1↔P3 EC still detected.
	if m.M[0][2] != 1 || m.M[2][0] != 1 {
		t.Error("present persons should still be analysed")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix([]int{0, 2, 5})
	m.M[0][1] = 1
	if e := m.Edges(); len(e) != 1 || e[0] != [2]int{0, 2} {
		t.Errorf("edges = %v, want [[0 2]] (participant IDs)", e)
	}
	if p := m.EyeContactPairs(); len(p) != 0 {
		t.Errorf("one-way edge reported as eye contact: %v", p)
	}
	m.M[1][0] = 1
	if p := m.EyeContactPairs(); len(p) != 1 || p[0] != [2]int{0, 2} {
		t.Errorf("mutual edges should be eye contact, got %v", p)
	}
}

func TestSummaryAccumulation(t *testing.T) {
	ids := []int{0, 1}
	s := NewSummary(ids)
	m := NewMatrix(ids)
	m.M[0][1] = 1
	for i := 0; i < 10; i++ {
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if s.Frames != 10 || s.Counts[0][1] != 10 || s.Counts[1][0] != 0 {
		t.Errorf("summary = %+v", s)
	}
	cols := s.ColumnSums()
	if cols[0] != 0 || cols[1] != 10 {
		t.Errorf("column sums = %v", cols)
	}
	rows := s.RowSums()
	if rows[0] != 10 || rows[1] != 0 {
		t.Errorf("row sums = %v", rows)
	}
	if s.Dominant() != 1 {
		t.Errorf("dominant = %d, want 1", s.Dominant())
	}
	// Mismatched matrix rejected.
	if err := s.Add(NewMatrix([]int{0, 1, 2})); err == nil {
		t.Error("mismatched Add should fail")
	}
	if s.String() == "" {
		t.Error("summary should render")
	}
}

func TestRadiusScaleMonotonic(t *testing.T) {
	// Larger sphere radius can only add detections, never remove them
	// — the monotonicity behind the T-B ablation sweep.
	sim, rig, ids := protoSetup(t)
	est := NewEstimator(EstimatorOptions{Seed: 5, GazeNoiseDeg: 6})
	obs := est.Observe(sim.FrameState(250), rig)
	small := &Detector{RadiusScale: 0.5}
	large := &Detector{RadiusScale: 2.0}
	ms, err := small.LookAt(obs, rig, ids)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := large.LookAt(obs, rig, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		for j := range ids {
			if ms.M[i][j] == 1 && ml.M[i][j] == 0 {
				t.Errorf("radius growth removed edge (%d,%d)", i, j)
			}
		}
	}
}

// TestLookAtStructuralInvariants: for any frame and noise seed, the
// matrix is binary, has a zero diagonal, and each row has at most one
// set entry (a person looks at one head at a time).
func TestLookAtStructuralInvariants(t *testing.T) {
	sim, rig, ids := protoSetup(t)
	det := NewDetector()
	f := func(frame uint16, seed int64, noise8 uint8) bool {
		est := NewEstimator(EstimatorOptions{
			Seed: seed, GazeNoiseDeg: float64(noise8%10) + 0.1,
		})
		fs := sim.FrameState(int(frame) % 610)
		obs := est.Observe(fs, rig)
		m, err := det.LookAt(obs, rig, ids)
		if err != nil {
			return false
		}
		for i := range ids {
			row := 0
			for j := range ids {
				v := m.M[i][j]
				if v != 0 && v != 1 {
					return false
				}
				if i == j && v != 0 {
					return false
				}
				row += v
			}
			if row > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
