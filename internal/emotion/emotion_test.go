package emotion

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/img"
)

func TestLabelVocabulary(t *testing.T) {
	if NumLabels != 7 {
		t.Fatalf("NumLabels = %d, want 7 (6 basic emotions + neutral)", NumLabels)
	}
	for _, l := range AllLabels() {
		back, err := ParseLabel(l.String())
		if err != nil || back != l {
			t.Errorf("round trip %v failed: %v %v", l, back, err)
		}
	}
	if _, err := ParseLabel("bored"); err == nil {
		t.Error("unknown label should fail to parse")
	}
	if s := Label(99).String(); s == "" {
		t.Error("invalid label should still render")
	} else if _, err := ParseLabel(s); err == nil {
		t.Errorf("invalid label's name %q should not parse", s)
	}
}

func TestLabelAffect(t *testing.T) {
	if !Happy.Positive() || Sad.Positive() {
		t.Error("Positive misclassifies")
	}
	for _, l := range []Label{Sad, Angry, Disgust, Fear} {
		if !l.Negative() {
			t.Errorf("%v should be negative", l)
		}
	}
	for _, l := range []Label{Neutral, Happy, Surprise} {
		if l.Negative() {
			t.Errorf("%v should not be negative", l)
		}
	}
}

func TestGenerateFaceDeterministic(t *testing.T) {
	a := GenerateFace(Happy, 42, 200)
	b := GenerateFace(Happy, 42, 200)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same variant should render identically")
		}
	}
	c := GenerateFace(Happy, 43, 200)
	diff := img.MeanAbsDiff(a, c)
	if diff == 0 {
		t.Error("different variants should differ")
	}
}

func TestGenerateFaceEmotionsDiffer(t *testing.T) {
	// Canonical faces of different emotions must be visually distinct.
	faces := map[Label]*img.Gray{}
	for _, l := range AllLabels() {
		faces[l] = GenerateFace(l, 0, 200)
	}
	distinct := 0
	for _, a := range []Label{Happy, Sad, Surprise, Angry} {
		for _, b := range []Label{Happy, Sad, Surprise, Angry} {
			if a >= b {
				continue
			}
			if img.MeanAbsDiff(faces[a], faces[b]) > 0.5 {
				distinct++
			}
		}
	}
	if distinct < 5 {
		t.Errorf("only %d of 6 emotion pairs visually distinct", distinct)
	}
}

func TestRenderFaceIntoTinyRect(t *testing.T) {
	g := img.New(10, 10)
	// Must not panic and must draw something.
	RenderFaceInto(g, img.Rect{X: 3, Y: 3, W: 3, H: 3}, 200, Happy, 1)
	if g.Mean() == 0 {
		t.Error("tiny face should still draw a blob")
	}
}

var (
	sharedClf  *Classifier
	sharedTest *Dataset
	sharedOnce sync.Once
	sharedErr  error
)

// sharedModelPath holds the trained weights of the shared classifier,
// so its users (the raced batch and concurrency gates among them) load
// it instead of training it; TestSharedClassifierModelGolden keeps the
// file equal to what training produces.
var sharedModelPath = filepath.Join("testdata", "shared_classifier.model")

// sharedDataset is the shared classifier's dataset, split into its
// training and held-out halves.
func sharedDataset() (train, test *Dataset) {
	return GenerateDataset(40, 1).Split(0.25)
}

// sharedClassifier loads one trained classifier for all accuracy tests
// from sharedModelPath — LBP extraction over hundreds of crops and 60
// epochs dominate test time otherwise, above all under -race.
func sharedClassifier(t *testing.T) (*Classifier, *Dataset) {
	t.Helper()
	sharedOnce.Do(func() {
		_, test := sharedDataset()
		f, err := os.Open(sharedModelPath)
		if err != nil {
			sharedErr = err
			return
		}
		defer f.Close()
		clf, err := LoadClassifier(f)
		if err != nil {
			sharedErr = err
			return
		}
		sharedClf, sharedTest = clf, test
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedClf, sharedTest
}

// TestSharedClassifierModelGolden trains the shared classifier and
// requires sharedModelPath to hold exactly its saved weights, so the
// tests that load the file test what training produces today
// (UPDATE_GOLDEN=1 rewrites the file).
func TestSharedClassifierModelGolden(t *testing.T) {
	train, _ := sharedDataset()
	clf, err := NewClassifier(48, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Train(train, TrainOptions{Epochs: 60, Seed: 3, LearningRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(sharedModelPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(sharedModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s is stale: training now saves %d bytes that differ from its %d (rerun with UPDATE_GOLDEN=1)",
			sharedModelPath, buf.Len(), len(want))
	}
	loaded, err := LoadClassifier(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Fingerprint(), clf.Fingerprint(); got != want {
		t.Fatalf("loaded fingerprint %016x, trained %016x", got, want)
	}
}

// TestClassifyBatchMatchesClassify checks the batched entry point gives
// the same label and confidence as per-face Classify.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	clf, test := sharedClassifier(t)
	labels, confs, err := clf.ClassifyBatch(test.Faces, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(test.Faces) || len(confs) != len(test.Faces) {
		t.Fatalf("batch sizes %d/%d for %d faces", len(labels), len(confs), len(test.Faces))
	}
	for i, f := range test.Faces {
		l, p, err := clf.Classify(f)
		if err != nil {
			t.Fatal(err)
		}
		if labels[i] != l || confs[i] != p {
			t.Fatalf("face %d: batch (%v,%v) != single (%v,%v)", i, labels[i], confs[i], l, p)
		}
	}
	if _, _, err := clf.ClassifyBatch(nil, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestSharedClassifierConcurrentBatch hammers one classifier from many
// goroutines mixing Classify and ClassifyBatch — run under -race, this
// is the shared-scratch safety gate.
func TestSharedClassifierConcurrentBatch(t *testing.T) {
	clf, _ := sharedClassifier(t)
	t.Run("float", func(t *testing.T) {
		ds := GenerateDataset(2, 77)
		wantL, wantC, err := clf.ClassifyBatch(ds.Faces, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wl := append([]Label(nil), wantL...)
		wp := append([]float64(nil), wantC...)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var labels []Label
				var confs []float64
				for iter := 0; iter < 6; iter++ {
					if g%2 == 0 {
						var err error
						labels, confs, err = clf.ClassifyBatch(ds.Faces, labels, confs)
						if err != nil {
							t.Error(err)
							return
						}
						for i := range wl {
							if labels[i] != wl[i] || confs[i] != wp[i] {
								t.Errorf("batch result drifted at face %d", i)
								return
							}
						}
					} else {
						for i, f := range ds.Faces {
							l, p, err := clf.Classify(f)
							if err != nil {
								t.Error(err)
								return
							}
							if l != wl[i] || p != wp[i] {
								t.Errorf("single result drifted at face %d", i)
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestFingerprintGolden pins the benchmark-shaped classifier's identity
// (training is deterministic, so this covers every trained weight and
// the fingerprint preamble). A change here means stored emotion records
// and run manifests no longer match earlier builds.
func TestFingerprintGolden(t *testing.T) {
	clf, err := NewClassifier(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Train(GenerateDataset(10, 1), TrainOptions{Epochs: 5, Seed: 2, LearningRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	if got, want := clf.Fingerprint(), uint64(0xe35614e01cc3fd7c); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
}

// TestPerFaceShapesTakeFastPaths is the non-vacuity check for the
// per-face kernels on the pipeline's shapes. A FaceSize×FaceSize crop
// has an LBP interior, so all but its one-pixel border ring skips
// Code3x3's clamped reads; and the benchmark-shaped 944-48-7 network's
// hidden width is a whole number of the forward pass's four-neuron
// blocks, so no hidden unit runs the remainder loop.
func TestPerFaceShapesTakeFastPaths(t *testing.T) {
	if interior := (FaceSize - 2) * (FaceSize - 2); interior*10 < FaceSize*FaceSize*9 {
		t.Errorf("a %d² crop has %d interior LBP pixels, under 90 %%", FaceSize, interior)
	}
	clf, err := NewClassifier(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := clf.net.Sizes()
	if len(sizes) != 3 || sizes[0] != 944 || sizes[1] != 48 || sizes[2] != NumLabels {
		t.Fatalf("network %v, want 944-48-%d", sizes, NumLabels)
	}
	if sizes[1]%4 != 0 {
		t.Errorf("hidden width %d leaves %d units to the remainder loop", sizes[1], sizes[1]%4)
	}
}

func TestClassifierAccuracy(t *testing.T) {
	clf, test := sharedClassifier(t)
	m, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(); acc < 0.8 {
		t.Errorf("held-out accuracy = %v, want ≥ 0.8\n%s", acc, m)
	}
}

func TestClassifierSaveLoad(t *testing.T) {
	clf, test := sharedClassifier(t)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on a few test faces.
	for i := 0; i < 5 && i < len(test.Faces); i++ {
		a, _, _ := clf.Classify(test.Faces[i])
		b, _, _ := loaded.Classify(test.Faces[i])
		if a != b {
			t.Errorf("face %d: prediction drift %v vs %v", i, a, b)
		}
	}
}

func TestClassifierRejectsGarbageModel(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage model should fail to load")
	}
}

func TestClassifyResizesToFaceSize(t *testing.T) {
	clf, _ := sharedClassifier(t)
	big := GenerateFace(Happy, 7, 200).Resize(100, 120)
	if _, _, err := clf.Classify(big); err != nil {
		t.Errorf("classify should resize internally: %v", err)
	}
}

func TestUntrainedClassifier(t *testing.T) {
	c := &Classifier{}
	if _, _, err := c.Classify(img.New(64, 64)); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v", err)
	}
	if err := c.Save(&bytes.Buffer{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("save err = %v", err)
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := GenerateDataset(8, 2)
	train, test := ds.Split(0.25)
	if len(train.Faces)+len(test.Faces) != len(ds.Faces) {
		t.Error("split loses samples")
	}
	if len(test.Faces) == 0 || len(train.Faces) == 0 {
		t.Error("split should be non-trivial")
	}
	// Degenerate fractions fall back to defaults.
	tr2, te2 := ds.Split(0)
	if len(tr2.Faces) == 0 || len(te2.Faces) == 0 {
		t.Error("fallback split broken")
	}
}

func TestConfusionMatrixAccuracy(t *testing.T) {
	var m ConfusionMatrix
	if m.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
	m[0][0] = 3
	m[1][1] = 1
	m[1][0] = 1
	if got := m.Accuracy(); got != 0.8 {
		t.Errorf("accuracy = %v, want 0.8", got)
	}
	if m.String() == "" {
		t.Error("matrix should render")
	}
}

func TestTrainValidatesDataset(t *testing.T) {
	clf, _ := NewClassifier(8, 1)
	if _, err := clf.Train(&Dataset{}, TrainOptions{Epochs: 1}); err == nil {
		t.Error("empty dataset should fail")
	}
	bad := &Dataset{Faces: []*img.Gray{img.New(64, 64)}}
	if _, err := clf.Train(bad, TrainOptions{Epochs: 1}); err == nil {
		t.Error("mismatched dataset should fail")
	}
}

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(-1, 1); err == nil {
		t.Error("negative hidden should fail")
	}
}
