package face

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/img"
)

// EmbedSize is the side length of the embedding patch; embeddings are
// EmbedSize² floats.
const EmbedSize = 16

// Embedding is a face descriptor filling the role of the paper's
// OpenFace face-recognition embeddings: a zero-mean, L2-normalised
// downsampled patch (structure) plus the mean intensity (tone). Patch
// normalisation alone is deliberately illumination-invariant, which also
// erases the absolute-brightness identity cue — so tone is carried
// separately and weighed back in by similarity.
type Embedding struct {
	// Patch is the zero-mean unit-norm 16×16 face patch.
	Patch [EmbedSize * EmbedSize]float64
	// Tone is the mean crop intensity in [0,1].
	Tone float64
}

// toneWeight converts tone difference into similarity penalty: a 25-level
// (≈0.1) tone gap costs ≈0.4 similarity.
const toneWeight = 4.0

// patchPool recycles the EmbedSize² resample buffer used by Identify so
// concurrent recognition stops allocating per call.
var patchPool = sync.Pool{New: func() any { return img.New(EmbedSize, EmbedSize) }}

// Embed computes the embedding of a face crop.
func Embed(face *img.Gray) Embedding {
	p := patchPool.Get().(*img.Gray)
	defer patchPool.Put(p)
	p = face.ResizeInto(EmbedSize, EmbedSize, p)
	var e Embedding
	var mean float64
	for i, v := range p.Pix {
		e.Patch[i] = float64(v)
		mean += e.Patch[i]
	}
	mean /= float64(len(e.Patch))
	e.Tone = mean / 255
	var norm float64
	for i := range e.Patch {
		e.Patch[i] -= mean
		norm += e.Patch[i] * e.Patch[i]
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		e.Patch = [EmbedSize * EmbedSize]float64{} // flat crop
		return e
	}
	for i := range e.Patch {
		e.Patch[i] /= norm
	}
	return e
}

// similarity combines patch cosine with a tone penalty; 1 means an
// identical face, lower values increasingly different ones. It takes
// pointers because the Identify hot loop calls it once per centroid, and
// a value form would copy two 2KB structs per call.
func similarity(e, o *Embedding) float64 {
	d := e.Tone - o.Tone
	if d < 0 {
		d = -d
	}
	var s float64
	for i := range e.Patch {
		s += e.Patch[i] * o.Patch[i]
	}
	return s - toneWeight*d
}

// Recognizer assigns identities to face crops by nearest enrolled
// centroid. Safe for concurrent Identify calls; Enroll must not race
// with Identify.
type Recognizer struct {
	mu      sync.RWMutex
	ids     []string
	centres map[string]*centroid
	// cents caches the centroids in ids order so the Identify hot loop
	// walks a dense slice instead of hashing every identity per face.
	// Rebuilt on Enroll.
	cents []*centroid
	// MinSim is the acceptance threshold: crops whose best similarity
	// falls below it are reported unknown (default 0.6).
	MinSim float64
}

type centroid struct {
	sum Embedding
	n   int
	// mean caches the normalised centroid, recomputed on Enroll so the
	// Identify hot path is read-only (and allocation-free).
	mean Embedding
}

func (c *centroid) recompute() {
	var m Embedding
	if c.n == 0 {
		c.mean = m
		return
	}
	m.Tone = c.sum.Tone / float64(c.n)
	var norm float64
	for i := range c.sum.Patch {
		m.Patch[i] = c.sum.Patch[i] / float64(c.n)
		norm += m.Patch[i] * m.Patch[i]
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		m.Patch = [EmbedSize * EmbedSize]float64{}
		c.mean = m
		return
	}
	for i := range m.Patch {
		m.Patch[i] /= norm
	}
	c.mean = m
}

// ErrUnknownFace is returned when no enrolled identity matches.
var ErrUnknownFace = errors.New("face: unknown identity")

// NewRecognizer returns an empty gallery.
func NewRecognizer() *Recognizer {
	return &Recognizer{centres: make(map[string]*centroid), MinSim: 0.6}
}

// Enroll adds a face sample for an identity; identities accumulate into
// centroids, so several samples per person sharpen the gallery.
func (r *Recognizer) Enroll(id string, face *img.Gray) error {
	if id == "" {
		return fmt.Errorf("face: empty identity: %w", ErrBadOptions)
	}
	e := Embed(face)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.centres[id]
	if !ok {
		c = &centroid{}
		r.centres[id] = c
		r.ids = append(r.ids, id)
		sort.Strings(r.ids)
		r.cents = r.cents[:0]
		for _, name := range r.ids {
			r.cents = append(r.cents, r.centres[name])
		}
	}
	for i := range e.Patch {
		c.sum.Patch[i] += e.Patch[i]
	}
	c.sum.Tone += e.Tone
	c.n++
	c.recompute()
	return nil
}

// Identify returns the best-matching identity and similarity for a face
// crop, or ErrUnknownFace when the gallery is empty or no centroid
// passes MinSim.
func (r *Recognizer) Identify(face *img.Gray) (string, float64, error) {
	e := Embed(face)
	r.mu.RLock()
	best, bestSim := r.identifyLocked(&e)
	r.mu.RUnlock()
	if best == "" {
		return "", bestSim, fmt.Errorf("face: best similarity %.3f below %.3f: %w",
			bestSim, r.MinSim, ErrUnknownFace)
	}
	return best, bestSim, nil
}

// IdentifyBatch identifies a whole set of face crops under one gallery
// lock, appending each crop's identity (empty when unknown — no error
// value to allocate on the expected miss path) and best similarity to
// ids and sims. Per-crop decisions are identical to Identify. Safe for
// concurrent callers.
func (r *Recognizer) IdentifyBatch(faces []*img.Gray, ids []string, sims []float64) ([]string, []float64) {
	ids, sims = ids[:0], sims[:0]
	if len(faces) == 0 {
		return ids, sims
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range faces {
		e := Embed(f)
		id, sim := r.identifyLocked(&e)
		ids = append(ids, id)
		sims = append(sims, sim)
	}
	return ids, sims
}

// identifyLocked scans the centroid cache for the best match; the
// caller holds at least a read lock. Returns "" (with the best
// similarity seen) when the gallery is empty or no centroid passes
// MinSim.
func (r *Recognizer) identifyLocked(e *Embedding) (string, float64) {
	best, bestSim := -1, math.Inf(-1)
	for i, c := range r.cents {
		sim := similarity(e, &c.mean)
		if sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if best < 0 || bestSim < r.MinSim {
		return "", bestSim
	}
	return r.ids[best], bestSim
}
