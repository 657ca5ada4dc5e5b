// Package dataset builds annotated dining-event datasets — the paper's
// stated future work ("We are planning to collect and annotate a
// dataset customized for our task"). An exported dataset bundles
// synchronized multi-camera footage (raw video containers) with
// frame-accurate ground-truth annotations (gaze targets, eye contact,
// emotions, activity phases, head poses) in a metadata repository, plus
// a JSON manifest. Datasets round-trip: Load returns the footage and a
// queryable annotation store.
package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/camera"
	"repro/internal/metadata"
	"repro/internal/scene"
	"repro/internal/video"
)

// ManifestName is the dataset manifest file name.
const ManifestName = "manifest.json"

// annotationsDir holds the metadata repository.
const annotationsDir = "annotations"

// Manifest describes an exported dataset.
type Manifest struct {
	// Name is the scenario name.
	Name string `json:"name"`
	// Frames is the per-camera frame count.
	Frames int `json:"frames"`
	// FPS is the capture rate.
	FPS float64 `json:"fps"`
	// Cameras lists the camera names, one container file each
	// ("<name>.diev").
	Cameras []string `json:"cameras"`
	// Participants maps 1-based labels to display colours.
	Participants map[string]string `json:"participants"`
	// AnnotationCount is the number of ground-truth records.
	AnnotationCount int `json:"annotation_count"`
}

// ExportOptions tune the export.
type ExportOptions struct {
	// Render tunes the synthetic sensor.
	Render video.RenderOptions
	// MaxFrames truncates the export (0 = all frames).
	MaxFrames int
	// Stride annotates every Stride-th frame (default 1 = every frame);
	// footage is always complete.
	Stride int
}

// ErrBadDataset reports a malformed dataset directory.
var ErrBadDataset = errors.New("dataset: bad dataset")

// Export renders the scenario through every camera of the rig into dir
// and writes ground-truth annotations alongside.
func Export(dir string, sc scene.Scenario, rig *camera.Rig, opt ExportOptions) (*Manifest, error) {
	sim, err := scene.NewSimulator(sc)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if opt.Stride <= 0 {
		opt.Stride = 1
	}
	numFrames := sim.NumFrames()
	if opt.MaxFrames > 0 && opt.MaxFrames < numFrames {
		numFrames = opt.MaxFrames
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: creating %s: %w", dir, err)
	}

	m := &Manifest{
		Name:         sc.Name,
		Frames:       numFrames,
		FPS:          sc.FPS,
		Participants: make(map[string]string, len(sc.Persons)),
	}
	for _, p := range sim.Persons() {
		m.Participants[p.Name] = p.Color
	}

	// Footage: one container per camera, rendered concurrently —
	// cameras are independent and rendering is the dominant cost.
	errs := make([]error, len(rig.Cameras))
	var wg sync.WaitGroup
	for ci, cam := range rig.Cameras {
		m.Cameras = append(m.Cameras, cam.Name)
		wg.Add(1)
		go func(ci int, cam *camera.Camera) {
			defer wg.Done()
			renderer := video.NewRenderer(sim, cam, opt.Render)
			frames := make([]video.Frame, 0, numFrames)
			for i := 0; i < numFrames; i++ {
				frames = append(frames, renderer.Render(i))
			}
			path := filepath.Join(dir, cam.Name+".diev")
			f, err := os.Create(path)
			if err != nil {
				errs[ci] = fmt.Errorf("dataset: creating %s: %w", path, err)
				return
			}
			if err := video.WriteContainer(f, rig.FPS, frames); err != nil {
				f.Close()
				errs[ci] = fmt.Errorf("dataset: writing %s: %w", path, err)
				return
			}
			if err := f.Close(); err != nil {
				errs[ci] = fmt.Errorf("dataset: closing %s: %w", path, err)
			}
		}(ci, cam)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Annotations.
	repo, err := metadata.Open(filepath.Join(dir, annotationsDir))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer repo.Close()
	if err := writeAnnotations(repo, sim, numFrames, opt.Stride); err != nil {
		return nil, err
	}
	if err := repo.Sync(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	m.AnnotationCount = repo.Len()

	// Manifest last: its presence marks a complete export.
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dataset: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
		return nil, fmt.Errorf("dataset: writing manifest: %w", err)
	}
	return m, nil
}

// writeAnnotations stores the ground truth for every annotated frame.
func writeAnnotations(repo *metadata.Repository, sim *scene.Simulator, numFrames, stride int) error {
	var batch []metadata.Record
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := repo.AppendBatch(batch); err != nil {
			return fmt.Errorf("dataset: writing annotations: %w", err)
		}
		batch = batch[:0]
		return nil
	}
	for f := 0; f < numFrames; f += stride {
		fs := sim.FrameState(f)
		// Phase annotation.
		batch = append(batch, metadata.Record{
			Kind: metadata.KindAnnotation, Frame: f, FrameEnd: f + 1,
			Time: fs.Time, Person: -1, Other: -1,
			Label: "phase", Tags: map[string]string{"value": fs.Phase.String()},
		})
		for _, p := range fs.Persons {
			// Emotion ground truth.
			batch = append(batch, metadata.Record{
				Kind: metadata.KindAnnotation, Frame: f, FrameEnd: f + 1,
				Time: fs.Time, Person: p.ID, Other: -1,
				Label: "true-emotion", Value: 1,
				Tags: map[string]string{"value": p.Emotion.String()},
			})
			// Gaze target ground truth.
			rec := metadata.Record{
				Kind: metadata.KindAnnotation, Frame: f, FrameEnd: f + 1,
				Time: fs.Time, Person: p.ID, Other: -1,
				Label: "true-gaze",
			}
			switch p.Target.Kind {
			case scene.LookAtPerson:
				rec.Other = p.Target.Person
				rec.Tags = map[string]string{"value": "person"}
			case scene.LookAtTable:
				rec.Tags = map[string]string{"value": "table"}
			default:
				rec.Tags = map[string]string{"value": "away"}
			}
			batch = append(batch, rec)
		}
		// Mutual eye contact.
		truth := fs.TrueLookAt()
		for i := range fs.Persons {
			for j := i + 1; j < len(fs.Persons); j++ {
				if truth[i][j] == 1 && truth[j][i] == 1 {
					batch = append(batch, metadata.Record{
						Kind: metadata.KindAnnotation, Frame: f, FrameEnd: f + 1,
						Time: fs.Time, Person: fs.Persons[i].ID, Other: fs.Persons[j].ID,
						Label: "true-eye-contact", Value: 1,
					})
				}
			}
		}
		if len(batch) >= 1024 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// Dataset is a loaded dataset: footage per camera plus the annotation
// store. The caller owns Close on Annotations.
type Dataset struct {
	Manifest Manifest
	// Footage maps camera name → decoded frames.
	Footage map[string][]video.Frame
	// Annotations is the ground-truth repository.
	Annotations *metadata.Repository
}

// Load opens a dataset directory.
func Load(dir string) (*Dataset, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("dataset: decoding manifest: %w", err)
	}
	if m.Frames <= 0 || len(m.Cameras) == 0 {
		return nil, fmt.Errorf("dataset: empty manifest: %w", ErrBadDataset)
	}
	ds := &Dataset{Manifest: m, Footage: make(map[string][]video.Frame, len(m.Cameras))}
	for _, cam := range m.Cameras {
		f, err := os.Open(filepath.Join(dir, cam+".diev"))
		if err != nil {
			return nil, fmt.Errorf("dataset: opening footage %s: %w", cam, err)
		}
		frames, fps, err := video.ReadContainer(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dataset: reading footage %s: %w", cam, err)
		}
		if fps != m.FPS {
			return nil, fmt.Errorf("dataset: footage %s at %v fps, manifest says %v: %w",
				cam, fps, m.FPS, ErrBadDataset)
		}
		if len(frames) != m.Frames {
			return nil, fmt.Errorf("dataset: footage %s has %d frames, manifest says %d: %w",
				cam, len(frames), m.Frames, ErrBadDataset)
		}
		ds.Footage[cam] = frames
	}
	// Datasets are immutable artifacts: open the annotations read-only
	// (shared lease) so any number of consumers can load the same
	// export concurrently.
	repo, err := metadata.Open(filepath.Join(dir, annotationsDir), metadata.WithReadOnly())
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	ds.Annotations = repo
	return ds, nil
}
