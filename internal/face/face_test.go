package face

import (
	"errors"
	"math"
	"testing"

	"repro/internal/emotion"
	"repro/internal/img"
)

// frameWithFaces draws n faces at known positions on a plain background.
func frameWithFaces(positions []img.Rect, tones []uint8) *img.Gray {
	g := img.New(640, 480)
	g.Fill(45)
	for i, r := range positions {
		emotion.RenderFaceInto(g, r, tones[i], emotion.Neutral, uint64(i)*7919+1)
	}
	return g
}

func TestDetectorFindsFaces(t *testing.T) {
	positions := []img.Rect{
		{X: 100, Y: 100, W: 40, H: 48},
		{X: 400, Y: 250, W: 56, H: 68},
	}
	g := frameWithFaces(positions, []uint8{200, 150})
	det, err := NewDetector(DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := det.Detect(g)
	if len(found) < 2 {
		t.Fatalf("found %d faces, want ≥ 2: %v", len(found), found)
	}
	for _, want := range positions {
		ok := false
		for _, d := range found {
			if d.Box.IoU(want) > 0.3 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("face at %v not detected; detections: %v", want, found)
		}
	}
}

func TestDetectorEmptyFrame(t *testing.T) {
	g := img.New(320, 240)
	g.Fill(45)
	det, _ := NewDetector(DetectorOptions{})
	if found := det.Detect(g); len(found) != 0 {
		t.Errorf("flat frame produced %d detections", len(found))
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(DetectorOptions{scales: []int{2}}); !errors.Is(err, ErrBadOptions) {
		t.Error("tiny scale should fail")
	}
	if _, err := NewDetector(DetectorOptions{strideFrac: 2}); !errors.Is(err, ErrBadOptions) {
		t.Error("stride > 1 should fail")
	}
}

// TestDetectorRefusesInexactRegions checks that NewDetector refuses any
// scale whose window or dilated flat-cell region exceeds the squared
// table's exactness bound, img.MaxExactRegionPixels (66 051), and
// accepts the scales just inside it.
func TestDetectorRefusesInexactRegions(t *testing.T) {
	for _, c := range []struct {
		scales     []int
		strideFrac float64
		ok         bool
	}{
		{scales: []int{96}, ok: true},                         // the default's largest: 104×120 cell
		{scales: []int{221}, ok: true},                        // 239×276 = 65 964-px cell
		{scales: []int{222}},                                  // 240×277 = 66 480-px cell
		{scales: []int{240}},                                  // 200×240 window passes the matcher, 260×300 cell does not
		{scales: []int{24, 48, 240}},                          // one bad scale refuses the set
		{scales: []int{280}, strideFrac: 1.0 / 280, ok: true}, // 234×281 cell
		{scales: []int{281}, strideFrac: 1.0 / 281},           // 234×281 window, 235×282 cell
		{scales: []int{282}, strideFrac: 1.0 / 282},           // 235×282 window alone is over
	} {
		_, err := NewDetector(DetectorOptions{scales: c.scales, strideFrac: c.strideFrac})
		if c.ok && err != nil {
			t.Errorf("scales %v stride %v: %v", c.scales, c.strideFrac, err)
		}
		if !c.ok && !errors.Is(err, ErrBadOptions) {
			t.Errorf("scales %v stride %v: err %v, want ErrBadOptions", c.scales, c.strideFrac, err)
		}
	}
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X: 0, Y: 0, W: 10, H: 10}, Score: 0.9},
		{Box: img.Rect{X: 1, Y: 1, W: 10, H: 10}, Score: 0.8}, // overlaps first
		{Box: img.Rect{X: 100, Y: 100, W: 10, H: 10}, Score: 0.7},
	}
	out := nms(dets, 0.3)
	if len(out) != 2 {
		t.Fatalf("nms kept %d, want 2", len(out))
	}
	if out[0].Score != 0.9 || out[1].Score != 0.7 {
		t.Errorf("nms kept wrong boxes: %v", out)
	}
}

func TestEmbeddingProperties(t *testing.T) {
	a := emotion.GenerateFace(emotion.Neutral, 1, 200)
	e := Embed(a)
	var norm float64
	for _, v := range e.Patch {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("embedding norm² = %v, want 1", norm)
	}
	flat := img.New(64, 64)
	flat.Fill(128)
	fe := Embed(flat)
	for _, v := range fe.Patch {
		if v != 0 {
			t.Fatal("flat crop should embed to zero")
		}
	}
}

func TestRecognizerIdentifiesEnrolled(t *testing.T) {
	r := NewRecognizer()
	// Enroll four synthetic identities differing in tone and variant —
	// mirroring the prototype's four participants.
	tones := []uint8{230, 190, 150, 110}
	for i, tone := range tones {
		id := []string{"P1", "P2", "P3", "P4"}[i]
		for v := 0; v < 3; v++ {
			face := emotion.GenerateFace(emotion.Neutral, uint64(i)*7919+1, tone)
			if err := r.Enroll(id, face); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Probe with a *different expression* of each identity.
	for i, tone := range tones {
		want := []string{"P1", "P2", "P3", "P4"}[i]
		probe := emotion.GenerateFace(emotion.Happy, uint64(i)*7919+1, tone)
		got, sim, err := r.Identify(probe)
		if err != nil {
			t.Fatalf("identify %s: %v (sim %v)", want, err, sim)
		}
		if got != want {
			t.Errorf("identified %s as %s (sim %.3f)", want, got, sim)
		}
	}
}

func TestRecognizerUnknownAndEmpty(t *testing.T) {
	r := NewRecognizer()
	if _, _, err := r.Identify(img.New(64, 64)); !errors.Is(err, ErrUnknownFace) {
		t.Errorf("empty gallery err = %v", err)
	}
	if err := r.Enroll("", img.New(64, 64)); err == nil {
		t.Error("empty id should fail")
	}
	face := emotion.GenerateFace(emotion.Neutral, 1, 200)
	if err := r.Enroll("P1", face); err != nil {
		t.Fatal(err)
	}
	// A flat probe must not match anything.
	flat := img.New(64, 64)
	flat.Fill(99)
	if _, _, err := r.Identify(flat); !errors.Is(err, ErrUnknownFace) {
		t.Errorf("flat probe err = %v", err)
	}
}

func TestKalmanConvergesToConstantVelocity(t *testing.T) {
	k := newKalman(0, 0, 1, 4)
	// Feed measurements of a target moving (2, 1) px/frame.
	for i := 1; i <= 50; i++ {
		k.predict()
		k.update(float64(i)*2, float64(i)*1)
	}
	vx, vy := k.x[2], k.x[3]
	if math.Abs(vx-2) > 0.2 || math.Abs(vy-1) > 0.2 {
		t.Errorf("velocity = (%v, %v), want ≈ (2, 1)", vx, vy)
	}
	px, py := k.pos()
	if math.Abs(px-100) > 2 || math.Abs(py-50) > 2 {
		t.Errorf("position = (%v, %v), want ≈ (100, 50)", px, py)
	}
}

func TestKalmanPredictionCoasting(t *testing.T) {
	k := newKalman(0, 0, 0.5, 2)
	for i := 1; i <= 30; i++ {
		k.predict()
		k.update(float64(i)*3, 0)
	}
	// Coast 5 frames without measurements: position should continue at
	// the learned velocity.
	for i := 0; i < 5; i++ {
		k.predict()
	}
	px, _ := k.pos()
	if math.Abs(px-(90+5*3)) > 3 {
		t.Errorf("coasted to %v, want ≈ 105", px)
	}
}

func TestHungarianOptimal(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	m := hungarian(cost)
	// Optimal: r0→c1 (1), r1→c0 (2), r2→c2 (2) = 5.
	want := []int{1, 0, 2}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", m, want)
		}
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More rows than columns: one row stays unassigned.
	cost := [][]float64{
		{1, 10},
		{2, 1},
		{10, 10},
	}
	m := hungarian(cost)
	used := map[int]bool{}
	assigned := 0
	for _, c := range m {
		if c >= 0 {
			if used[c] {
				t.Fatal("column used twice")
			}
			used[c] = true
			assigned++
		}
	}
	if assigned != 2 {
		t.Fatalf("assigned %d of 2 columns: %v", assigned, m)
	}
	// r0→c0 and r1→c1 is the optimum.
	if m[0] != 0 || m[1] != 1 || m[2] != -1 {
		t.Errorf("assignment = %v, want [0 1 -1]", m)
	}

	// More columns than rows.
	cost2 := [][]float64{{5, 1, 9}}
	m2 := hungarian(cost2)
	if m2[0] != 1 {
		t.Errorf("wide assignment = %v, want [1]", m2)
	}

	if hungarian(nil) != nil {
		t.Error("empty cost should give nil")
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	// Property: on small random square instances, the Hungarian result
	// equals exhaustive-search optimum.
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		n := 2 + int(seed%4)
		cost := make([][]float64, n)
		h := seed
		next := func() float64 {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			return float64(h % 100)
		}
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = next()
			}
		}
		m := hungarian(cost)
		var got float64
		for i, j := range m {
			got += cost[i][j]
		}
		want := bruteForceAssign(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: hungarian %v vs brute force %v (m=%v)", seed, got, want, m)
		}
	}
}

// bruteForceAssign finds the optimal assignment cost by permutation.
func bruteForceAssign(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var s float64
			for i, j := range perm {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker(TrackerOptions{confirmHits: 3, maxMisses: 2})
	det := func(x int) []Detection {
		return []Detection{{Box: img.Rect{X: x, Y: 100, W: 40, H: 48}, Score: 0.9}}
	}
	// Frame 1: new tentative track.
	got := tr.Step(det(100))
	if len(got) != 1 || got[0].State != Tentative {
		t.Fatalf("first frame: %+v", got)
	}
	id := got[0].ID
	// Frames 2-3: same face drifting right — confirms.
	tr.Step(det(103))
	got = tr.Step(det(106))
	if got[0].ID != id {
		t.Fatalf("track ID changed: %d -> %d", id, got[0].ID)
	}
	if got[0].State != Confirmed {
		t.Errorf("state after 3 hits = %v, want confirmed", got[0].State)
	}
	// Miss 3 frames: track dies (maxMisses 2).
	tr.Step(nil)
	tr.Step(nil)
	tr.Step(nil)
	if live := tr.Tracks(); len(live) != 0 {
		t.Errorf("%d tracks alive after misses", len(live))
	}
}

// TestTrackerCoastCountsNoMiss drives the tracker the way a detector
// cadence of 3 does — one Step, two Coasts — and requires the track to
// survive and confirm: a frame nobody looked at is not a miss, whereas
// Step(nil) on the same frames kills the tentative track.
func TestTrackerCoastCountsNoMiss(t *testing.T) {
	det := func(x int) []Detection {
		return []Detection{{Box: img.Rect{X: x, Y: 100, W: 40, H: 48}, Score: 0.9}}
	}
	tr := NewTracker(TrackerOptions{})
	id := tr.Step(det(100))[0].ID
	for i := 1; i <= 2; i++ {
		tr.Coast()
		tr.Coast()
		got := tr.Step(det(100 + 6*i))
		if got[0].ID != id || got[0].Misses != 0 {
			t.Fatalf("after %d coasted gaps: track %d misses %d, want track %d with no misses",
				i, got[0].ID, got[0].Misses, id)
		}
	}
	if live := tr.Tracks(); len(live) != 1 || live[0].State != Confirmed || live[0].Age != 6 {
		t.Errorf("after 3 hits over 7 frames: %+v, want one confirmed track aged 6", live)
	}

	starved := NewTracker(TrackerOptions{})
	starved.Step(det(100))
	starved.Step(nil)
	starved.Step(nil)
	if live := starved.Tracks(); len(live) != 0 {
		t.Errorf("Step(nil) twice left %d tentative tracks alive", len(live))
	}
}

func TestTrackerKeepsIdentitiesApart(t *testing.T) {
	tr := NewTracker(TrackerOptions{confirmHits: 2})
	mk := func(x1, x2 int) []Detection {
		return []Detection{
			{Box: img.Rect{X: x1, Y: 100, W: 40, H: 48}, Score: 0.9},
			{Box: img.Rect{X: x2, Y: 300, W: 40, H: 48}, Score: 0.9},
		}
	}
	first := tr.Step(mk(100, 100))
	idA, idB := first[0].ID, first[1].ID
	if idA == idB {
		t.Fatal("two detections got one track")
	}
	// Both drift right over 10 frames; IDs must persist.
	for i := 1; i <= 10; i++ {
		got := tr.Step(mk(100+3*i, 100+3*i))
		if got[0].ID != idA || got[1].ID != idB {
			t.Fatalf("frame %d: IDs swapped or changed: %d,%d", i, got[0].ID, got[1].ID)
		}
	}
}

func TestTrackerSurvivesShortOcclusion(t *testing.T) {
	tr := NewTracker(TrackerOptions{confirmHits: 2, maxMisses: 8})
	det := func(x int) []Detection {
		return []Detection{{Box: img.Rect{X: x, Y: 100, W: 40, H: 48}, Score: 0.9}}
	}
	var id int
	for i := 0; i < 6; i++ {
		got := tr.Step(det(100 + 4*i))
		id = got[0].ID
	}
	// 4-frame occlusion.
	for i := 0; i < 4; i++ {
		tr.Step(nil)
	}
	// Reappears where the motion model predicts (x continues +4/frame).
	got := tr.Step(det(100 + 4*10))
	if got[0].ID != id {
		t.Errorf("track not re-acquired after occlusion: %d -> %d", id, got[0].ID)
	}
}

func TestTrackerGatingRejectsFarMatches(t *testing.T) {
	tr := NewTracker(TrackerOptions{confirmHits: 2, maxDist: 30})
	got := tr.Step([]Detection{{Box: img.Rect{X: 100, Y: 100, W: 40, H: 48}}})
	id := got[0].ID
	// A detection 300px away must start a new track, not steal the old.
	got = tr.Step([]Detection{{Box: img.Rect{X: 400, Y: 100, W: 40, H: 48}}})
	if got[0].ID == id {
		t.Error("far detection stole the track")
	}
}
