// Package emotion implements DiEvent's emotion-recognition component
// (paper §II-C): the six basic emotions, a synthetic expressive-face
// generator standing in for recorded face crops, and a classifier using
// Local Binary Patterns as the feature extractor and a feed-forward
// neural network as the classifier — exactly the method the paper names.
package emotion

import "fmt"

// Label is one of the basic emotions the paper recognises (§II-C:
// "happy, sad, angry, disgust, fear, and surprise"), plus Neutral as the
// resting state.
type Label uint8

// The emotion vocabulary. Neutral is first so the zero value is the
// resting state.
const (
	Neutral Label = iota
	Happy
	Sad
	Angry
	Disgust
	Fear
	Surprise

	numLabels
)

// NumLabels is the size of the emotion vocabulary.
const NumLabels = int(numLabels)

var labelNames = [NumLabels]string{
	"neutral", "happy", "sad", "angry", "disgust", "fear", "surprise",
}

// String returns the lower-case emotion name.
func (l Label) String() string {
	if int(l) >= NumLabels {
		return fmt.Sprintf("emotion(%d)", uint8(l))
	}
	return labelNames[l]
}

// ParseLabel maps a name back to its Label.
func ParseLabel(s string) (Label, error) {
	for i, n := range labelNames {
		if n == s {
			return Label(i), nil
		}
	}
	return Neutral, fmt.Errorf("emotion: unknown label %q", s)
}

// AllLabels returns the full vocabulary in order.
func AllLabels() []Label {
	out := make([]Label, NumLabels)
	for i := range out {
		out[i] = Label(i)
	}
	return out
}

// Positive reports whether the label counts toward the paper's "overall
// happiness" metric (Fig. 5): only Happy does.
func (l Label) Positive() bool { return l == Happy }

// Negative reports whether the label is a negative affect (sad, angry,
// disgust, fear) — used by the satisfaction score in the multilayer
// analysis.
func (l Label) Negative() bool {
	switch l {
	case Sad, Angry, Disgust, Fear:
		return true
	}
	return false
}
