//go:build !race

// The frame below is as large as the summed-area tables accept (16.8M
// pixels, about 150 MB with its 8 bytes per pixel of tables); the race
// detector's shadow memory would multiply that, so the test runs in
// normal builds only.

package face

import (
	"math"
	"testing"

	"repro/internal/emotion"
	"repro/internal/img"
)

// TestDetectWidestFrame detects on the widest frame the summed-area
// tables accept at a height that leaves refinement room to climb in y:
// W·H at the tables' limit, W far beyond 2¹⁶. Identical faces sit 2¹⁶
// pixels apart and beyond, so a refinement memo keyed on 16-bit
// coordinates would hand one face's scores to the other. Each face
// must come out as the exhaustive oracle finds it on a crop around it,
// shifted into place: the same box, the score within 1e-9.
func TestDetectWidestFrame(t *testing.T) {
	const h = 48
	w := (1<<32 - 1) / 255 / h // the tables' pixel limit, one row high
	det, err := NewDetector(DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := img.New(w, h)
	g.Fill(50)
	xs := []int{1000, 1000 + 1<<16, 1003 + 3<<16, w - 40}
	face := img.Rect{Y: 7, W: 28, H: 34}
	for _, x := range xs {
		face.X = x
		emotion.RenderFaceInto(g, face, 200, emotion.Neutral, 3)
	}
	got := det.Detect(g)

	var want []Detection
	for _, x := range xs {
		// Crop on a multiple of every scale's grid stride (6, 8 and
		// 12 px for the scales that fit), so the crop scans the same
		// grid windows as the frame.
		x0 := max(x-60, 0) / 24 * 24
		x1 := min(x+100, w)
		crop, err := g.CropInto(img.Rect{X: x0, W: x1 - x0, H: h}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range det.detectOracle(crop) {
			d.Box.X += x0
			want = append(want, d)
		}
	}
	if len(want) < len(xs) {
		t.Fatalf("oracle found %d faces of %d: %v", len(want), len(xs), want)
	}
	if len(got) != len(want) {
		t.Fatalf("found %d detections, oracle %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for _, wd := range want {
		found := false
		for _, gd := range got {
			found = found || (gd.Box == wd.Box && math.Abs(gd.Score-wd.Score) <= 1e-9)
		}
		if !found {
			t.Errorf("oracle detection %v missing from %v", wd, got)
		}
	}
}
