package emotion

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/img"
	"repro/internal/lbp"
	"repro/internal/nn"
)

// Classifier is the paper's emotion recogniser: uniform LBP grid
// histograms fed to a feed-forward neural network (§II-C). Classify and
// ClassifyBatch are safe for concurrent callers and share one scratch
// pool: Classify runs its face as a batch of one, and every call
// borrows its working set (resized crop, LBP code image, descriptors,
// network outputs) from the pool, so the hot path stops allocating
// once warm.
type Classifier struct {
	net *nn.Network
	// gridX, gridY are the LBP descriptor grid, fixed at construction.
	gridX, gridY int

	scratch sync.Pool // of *batchScratch
}

// batchScratch is the reusable working set of one classification call:
// a flat sample-major feature matrix plus the per-face extraction
// scratch and the network's output buffers.
type batchScratch struct {
	feats []float64    // batch × featLen, sample-major
	rows  [][]float64  // row views into feats
	sc    clfScratch   // shared crop/code scratch, reused face by face
	one   [1]*img.Gray // one-face batch header for Classify
	cls   []int
	conf  []float64
}

// clfScratch is the per-face extraction working set.
type clfScratch struct {
	resized *img.Gray // face crop resampled to FaceSize²
	codes   *img.Gray // LBP code image
	feat    []float64 // grid descriptor
}

// DefaultGrid is the LBP grid used by the default classifier: 4×4 cells
// of 59 uniform bins = 944 features per face crop.
const DefaultGrid = 4

// ErrNotTrained is returned when classifying before training/loading.
var ErrNotTrained = errors.New("emotion: classifier not trained")

// NewClassifier builds an untrained classifier with the given hidden
// width (default 48 when 0).
func NewClassifier(hidden int, seed int64) (*Classifier, error) {
	if hidden == 0 {
		hidden = 48
	}
	if hidden < 0 {
		return nil, fmt.Errorf("emotion: hidden width %d: %w", hidden, nn.ErrBadConfig)
	}
	in := DefaultGrid * DefaultGrid * lbp.NumUniformBins
	net, err := nn.New(nn.Config{
		Sizes:  []int{in, hidden, NumLabels},
		Hidden: nn.ReLU,
		Seed:   seed,
	})
	if err != nil {
		return nil, fmt.Errorf("emotion: building network: %w", err)
	}
	return &Classifier{net: net, gridX: DefaultGrid, gridY: DefaultGrid}, nil
}

// Features extracts the LBP descriptor of a face crop (resized to
// FaceSize first so any detector output size works). The returned
// slice is freshly allocated and safe to retain.
func (c *Classifier) Features(face *img.Gray) ([]float64, error) {
	return c.featuresInto(face, &clfScratch{codes: &img.Gray{}})
}

// featuresInto is the shared extraction path: resize into sc's crop
// buffer when needed, then compute the grid descriptor into sc's
// descriptor and code-image scratch. The returned slice aliases
// sc.feat.
func (c *Classifier) featuresInto(face *img.Gray, sc *clfScratch) ([]float64, error) {
	if face.W != FaceSize || face.H != FaceSize {
		sc.resized = face.ResizeInto(FaceSize, FaceSize, sc.resized)
		face = sc.resized
	}
	feat, err := lbp.GridDescriptorInto(face, c.gridX, c.gridY, sc.feat, sc.codes)
	if err != nil {
		return nil, fmt.Errorf("emotion: extracting features: %w", err)
	}
	sc.feat = feat
	return feat, nil
}

// Classify returns the predicted emotion and its confidence for a face
// crop, as a batch of one through ClassifyBatch's pooled path. Safe for
// concurrent callers.
func (c *Classifier) Classify(face *img.Gray) (Label, float64, error) {
	if c.net == nil {
		return Neutral, 0, ErrNotTrained
	}
	bs := c.acquire()
	defer c.release(bs)
	bs.one[0] = face
	if err := c.classify(bs, bs.one[:]); err != nil {
		return Neutral, 0, err
	}
	return Label(bs.cls[0]), bs.conf[0], nil
}

// ClassifyBatch classifies a whole set of face crops in one batched
// network pass, appending the labels and confidences to labels and
// confs (pass nil to allocate, retained buffers to reuse their
// capacity). Per-face results are identical to Classify — feature
// extraction is per face either way and the batched forward pass is
// bit-identical per sample — but one weight-row walk serves the whole
// batch. Safe for concurrent callers.
func (c *Classifier) ClassifyBatch(faces []*img.Gray, labels []Label, confs []float64) ([]Label, []float64, error) {
	labels, confs = labels[:0], confs[:0]
	if c.net == nil {
		return nil, nil, ErrNotTrained
	}
	if len(faces) == 0 {
		return labels, confs, nil
	}
	bs := c.acquire()
	defer c.release(bs)
	if err := c.classify(bs, faces); err != nil {
		return nil, nil, err
	}
	for i, cls := range bs.cls {
		labels = append(labels, Label(cls))
		confs = append(confs, bs.conf[i])
	}
	return labels, confs, nil
}

// acquire borrows a working set from the scratch pool.
func (c *Classifier) acquire() *batchScratch {
	bs, _ := c.scratch.Get().(*batchScratch)
	if bs == nil {
		bs = &batchScratch{sc: clfScratch{codes: &img.Gray{}}}
	}
	return bs
}

// release returns a working set to the pool, dropping the one-face
// header's reference so pooled scratch never pins a caller's crop.
func (c *Classifier) release(bs *batchScratch) {
	bs.one[0] = nil
	c.scratch.Put(bs)
}

// classify extracts every face's descriptor into bs and runs them
// through the network in one batch, leaving the classes and
// confidences in bs.cls and bs.conf.
func (c *Classifier) classify(bs *batchScratch, faces []*img.Gray) error {
	featLen := c.gridX * c.gridY * lbp.NumUniformBins
	if need := len(faces) * featLen; cap(bs.feats) < need {
		bs.feats = make([]float64, need)
	}
	bs.rows = bs.rows[:0]
	for i, f := range faces {
		row := bs.feats[i*featLen : (i+1)*featLen : (i+1)*featLen]
		bs.sc.feat = row
		if _, err := c.featuresInto(f, &bs.sc); err != nil {
			return fmt.Errorf("emotion: batch face %d: %w", i, err)
		}
		bs.rows = append(bs.rows, row)
	}
	var err error
	if bs.cls, bs.conf, err = c.net.ClassifyBatch(bs.rows, bs.cls, bs.conf); err != nil {
		return fmt.Errorf("emotion: classifying batch: %w", err)
	}
	return nil
}

// Dataset is a labelled set of face crops.
type Dataset struct {
	Faces  []*img.Gray
	Labels []Label
}

// GenerateDataset renders perVariant synthetic subjects for every
// emotion label across the given skin tones, with deterministic variant
// jitter — the stand-in for the paper's training corpus.
func GenerateDataset(perLabel int, seed uint64) *Dataset {
	tones := []uint8{230, 200, 170, 140, 110}
	ds := &Dataset{}
	for _, l := range AllLabels() {
		for v := 0; v < perLabel; v++ {
			variant := seed*1_000_003 + uint64(l)*10_007 + uint64(v)*101 + 1
			tone := tones[v%len(tones)]
			ds.Faces = append(ds.Faces, GenerateFace(l, variant, tone))
			ds.Labels = append(ds.Labels, l)
		}
	}
	return ds
}

// Split partitions the dataset into train/test by taking every k-th
// sample into the test set (k = 1/testFrac rounded); deterministic and
// stratified because GenerateDataset interleaves labels consistently.
func (d *Dataset) Split(testFrac float64) (train, test *Dataset) {
	if testFrac <= 0 || testFrac >= 1 {
		testFrac = 0.25
	}
	k := int(1 / testFrac)
	if k < 2 {
		k = 2
	}
	train, test = &Dataset{}, &Dataset{}
	for i := range d.Faces {
		if i%k == 0 {
			test.Faces = append(test.Faces, d.Faces[i])
			test.Labels = append(test.Labels, d.Labels[i])
		} else {
			train.Faces = append(train.Faces, d.Faces[i])
			train.Labels = append(train.Labels, d.Labels[i])
		}
	}
	return train, test
}

// TrainOptions re-exports the network training knobs.
type TrainOptions = nn.TrainOptions

// Train fits the classifier on a dataset and returns per-epoch losses.
func (c *Classifier) Train(ds *Dataset, opt TrainOptions) ([]float64, error) {
	if len(ds.Faces) == 0 || len(ds.Faces) != len(ds.Labels) {
		return nil, fmt.Errorf("emotion: dataset %d faces vs %d labels: %w",
			len(ds.Faces), len(ds.Labels), nn.ErrBadData)
	}
	samples := make([][]float64, len(ds.Faces))
	labels := make([]int, len(ds.Faces))
	for i, f := range ds.Faces {
		feat, err := c.Features(f)
		if err != nil {
			return nil, fmt.Errorf("emotion: sample %d: %w", i, err)
		}
		samples[i] = feat
		labels[i] = int(ds.Labels[i])
	}
	hist, err := c.net.Train(samples, labels, opt)
	if err != nil {
		return nil, fmt.Errorf("emotion: training: %w", err)
	}
	return hist, nil
}

// ConfusionMatrix is indexed [true][predicted].
type ConfusionMatrix [NumLabels][NumLabels]int

// Accuracy returns the trace ratio.
func (m *ConfusionMatrix) Accuracy() float64 {
	correct, total := 0, 0
	for i := range m {
		for j := range m[i] {
			total += m[i][j]
			if i == j {
				correct += m[i][j]
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// String renders the matrix with row/column labels.
func (m *ConfusionMatrix) String() string {
	s := "true\\pred"
	for _, l := range AllLabels() {
		s += fmt.Sprintf("%9s", l)
	}
	s += "\n"
	for i, l := range AllLabels() {
		s += fmt.Sprintf("%-9s", l)
		for j := range m[i] {
			s += fmt.Sprintf("%9d", m[i][j])
		}
		s += "\n"
	}
	return s
}

// Evaluate classifies a dataset and returns the confusion matrix.
func (c *Classifier) Evaluate(ds *Dataset) (*ConfusionMatrix, error) {
	var m ConfusionMatrix
	for i, f := range ds.Faces {
		got, _, err := c.Classify(f)
		if err != nil {
			return nil, fmt.Errorf("emotion: evaluating sample %d: %w", i, err)
		}
		m[ds.Labels[i]][got]++
	}
	return &m, nil
}

// Fingerprint hashes the classifier's grid shape and network weights
// into a stable identity. Pipelines record it in their run manifest so
// an incremental re-run notices a retrained or swapped model and
// re-derives the emotion layer.
func (c *Classifier) Fingerprint() uint64 {
	h := fnv.New64a()
	// The fixed "quant=false;" keeps fingerprints equal to existing manifests'.
	fmt.Fprintf(h, "grid=%dx%d;quant=false;", c.gridX, c.gridY)
	if c.net != nil {
		// Saving into an fnv hash cannot fail.
		_ = c.net.Save(h)
	}
	return h.Sum64()
}

// Save persists the trained network.
func (c *Classifier) Save(w io.Writer) error {
	if c.net == nil {
		return ErrNotTrained
	}
	return c.net.Save(w)
}

// LoadClassifier reads a classifier saved with Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	net, err := nn.Load(r)
	if err != nil {
		return nil, fmt.Errorf("emotion: loading model: %w", err)
	}
	sizes := net.Sizes()
	want := DefaultGrid * DefaultGrid * lbp.NumUniformBins
	if sizes[0] != want {
		return nil, fmt.Errorf("emotion: model input %d, want %d: %w", sizes[0], want, nn.ErrBadModel)
	}
	if sizes[len(sizes)-1] != NumLabels {
		return nil, fmt.Errorf("emotion: model output %d, want %d: %w",
			sizes[len(sizes)-1], NumLabels, nn.ErrBadModel)
	}
	return &Classifier{net: net, gridX: DefaultGrid, gridY: DefaultGrid}, nil
}
