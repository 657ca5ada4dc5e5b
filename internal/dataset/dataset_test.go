package dataset

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/camera"
	"repro/internal/scene"
	"repro/internal/video"
)

func exportSmall(t *testing.T, dir string) *Manifest {
	t.Helper()
	rig, err := camera.PrototypeRig(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Export(dir, scene.PrototypeScenario(), rig, ExportOptions{
		Render:    video.RenderOptions{NoiseSigma: 1},
		MaxFrames: 30,
		Stride:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExportLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := exportSmall(t, dir)
	if m.Frames != 30 || len(m.Cameras) != 4 {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Participants["P1"] != "yellow" {
		t.Errorf("participants = %v", m.Participants)
	}

	ds, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Annotations.Close()
	if len(ds.Footage) != 4 {
		t.Fatalf("footage cameras = %d", len(ds.Footage))
	}
	for cam, frames := range ds.Footage {
		if len(frames) != 30 {
			t.Errorf("%s has %d frames", cam, len(frames))
		}
		if frames[0].Pixels.W != 640 || frames[0].Pixels.H != 480 {
			t.Errorf("%s resolution %dx%d", cam, frames[0].Pixels.W, frames[0].Pixels.H)
		}
	}
	if ds.Annotations.Len() != m.AnnotationCount {
		t.Errorf("annotations = %d, manifest says %d", ds.Annotations.Len(), m.AnnotationCount)
	}
}

func TestAnnotationsMatchSimulator(t *testing.T) {
	dir := t.TempDir()
	exportSmall(t, dir)
	ds, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Annotations.Close()

	sim, err := scene.NewSimulator(scene.PrototypeScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []int{0, 15, 29} {
		fs := sim.FrameState(f)
		for _, p := range fs.Persons {
			recs, err := ds.Annotations.Query(fmt.Sprintf(
				"label = 'true-emotion' AND frame = %d AND person = %d", f, p.ID+1))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 {
				t.Fatalf("frame %d P%d: %d emotion annotations, want 1", f, p.ID+1, len(recs))
			}
			if got := recs[0].Tags["value"]; got != p.Emotion.String() {
				t.Errorf("frame %d P%d emotion = %q, want %q", f, p.ID+1, got, p.Emotion)
			}
		}
	}
	// Gaze annotations: P2 (ID 1) looks at P1 (ID 0) during the first
	// segment.
	recs, err := ds.Annotations.Query("label = 'true-gaze' AND person = 2 AND frame = 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Other != 0 || recs[0].Tags["value"] != "person" {
		t.Errorf("P2 gaze annotation = %v", recs)
	}
}

func TestExportStride(t *testing.T) {
	dir := t.TempDir()
	rig, _ := camera.PrototypeRig(6, 5)
	m, err := Export(dir, scene.PrototypeScenario(), rig, ExportOptions{
		MaxFrames: 30, Stride: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Annotations.Close()
	// Only frames 0, 10, 20 annotated — but footage stays complete.
	recs, err := ds.Annotations.Query("label = 'phase'")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("phase annotations = %d, want 3", len(recs))
	}
	if len(ds.Footage[m.Cameras[0]]) != 30 {
		t.Error("footage must not be strided")
	}
}

func TestLoadRejectsMissingAndCorrupt(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty dir should fail")
	}
	dir := t.TempDir()
	exportSmall(t, dir)
	// Corrupt a footage file's tail.
	path := filepath.Join(dir, "C1.diev")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt footage should fail to load")
	}

	// Manifest/footage count mismatch.
	dir2 := t.TempDir()
	exportSmall(t, dir2)
	m, _ := os.ReadFile(filepath.Join(dir2, ManifestName))
	bad := []byte(string(m))
	bad = []byte(replaceOnce(string(bad), "\"frames\": 30", "\"frames\": 99"))
	if err := os.WriteFile(filepath.Join(dir2, ManifestName), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir2); !errors.Is(err, ErrBadDataset) {
		t.Errorf("mismatched manifest err = %v", err)
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}
