// Package layers implements DiEvent's multilayer analysis (paper §II-D):
// fusing time-variant information sources (per-frame gaze matrices and
// per-person emotions) with time-invariant context (location, menu,
// occasion, participants, social relations) into smoothed eye-contact
// events, the overall-emotion estimate of Fig. 5, and alerts for the
// sociologist-facing functionality the paper's conclusion names
// ("alerting functionalities like the emotion state changes, and the
// eye contact detection").
package layers

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/emotion"
	"repro/internal/gaze"
)

// Participant is the time-invariant description of one diner.
type Participant struct {
	ID    int
	Name  string
	Color string
}

// Context is the time-invariant layer (paper: "location, menu, date,
// occasion type, number of participants and their social information and
// relationships"): the location and occasion of the scripted event and
// its participants.
type Context struct {
	Location     string
	Occasion     string
	Participants []Participant
}

// IDs returns the participant IDs in declaration order.
func (c Context) IDs() []int {
	out := make([]int, len(c.Participants))
	for i, p := range c.Participants {
		out[i] = p.ID
	}
	return out
}

// Participant returns the participant with the given ID.
func (c Context) Participant(id int) (Participant, bool) {
	for _, p := range c.Participants {
		if p.ID == id {
			return p, true
		}
	}
	return Participant{}, false
}

// EmotionObs is one person's recognized emotion in one frame.
type EmotionObs struct {
	Label emotion.Label
	// Confidence in [0,1] from the classifier softmax.
	Confidence float64
}

// FrameInput is the time-variant evidence for one frame.
type FrameInput struct {
	Index int
	Time  time.Duration
	// LookAt is the frame's raw look-at matrix from the gaze detector.
	LookAt gaze.Matrix
	// Emotions maps participant ID → recognized emotion; persons whose
	// face was not classified this frame are simply absent.
	Emotions map[int]EmotionObs
}

// OverallEmotion is the Fig. 5 estimate for one frame: the
// confidence-weighted share of each emotion across participants, and OH,
// the overall-happiness percentage the figure highlights.
type OverallEmotion struct {
	Index int
	Time  time.Duration
	// Share[l] is the weighted fraction of participants showing l.
	Share [emotion.NumLabels]float64
	// OH is Share[Happy] expressed in percent (the paper's "overall
	// happiness percentage").
	OH float64
	// Observed is how many participants contributed evidence.
	Observed int
}

// ECEvent is a contiguous run of (smoothed) mutual eye contact between
// two participants.
type ECEvent struct {
	A, B int
	// Start and End are frame indexes, [Start, End).
	Start, End int
	// StartTime and EndTime are the corresponding timestamps.
	StartTime, EndTime time.Duration
}

// Duration returns the event length in frames.
func (e ECEvent) Frames() int { return e.End - e.Start }

// AlertKind classifies alerts.
type AlertKind uint8

// Alert kinds.
const (
	// AlertEmotionChange fires when a participant's sustained emotion
	// switches.
	AlertEmotionChange AlertKind = iota
	// AlertECStart fires when a new eye-contact event begins.
	AlertECStart
	// AlertNegativeSpike fires when the negative-affect share crosses
	// 0.5 — the smart-restaurant "table unhappy" signal.
	AlertNegativeSpike
)

// String names the kind.
func (k AlertKind) String() string {
	switch k {
	case AlertEmotionChange:
		return "emotion-change"
	case AlertECStart:
		return "eye-contact"
	case AlertNegativeSpike:
		return "negative-spike"
	}
	return fmt.Sprintf("alert(%d)", uint8(k))
}

// Alert is one analysis alert.
type Alert struct {
	Kind  AlertKind
	Frame int
	Time  time.Duration
	// Person is the participant concerned (−1 for table-level alerts).
	Person int
	// Other is the second participant for EC alerts (−1 otherwise).
	Other int
	// Detail is a human-readable explanation.
	Detail string
}

// Result is the multilayer analysis output for an event.
type Result struct {
	Context Context
	// Summary is the accumulated raw look-at summary (Fig. 9).
	Summary *gaze.Summary
	// SmoothedSummary accumulates the temporally smoothed matrices.
	SmoothedSummary *gaze.Summary
	// Overall is the per-frame overall emotion series (Fig. 5).
	Overall []OverallEmotion
	// Events are the detected eye-contact events.
	Events []ECEvent
	// Alerts in frame order.
	Alerts []Alert
	// InferredSpeakers estimates who holds the floor in each frame from
	// the smoothed gaze layer: listeners look at the speaker (the
	// paper's §II-D social reading of gaze). −1 means no clear speaker.
	InferredSpeakers []int
	// Frames is the number of frames analysed.
	Frames int

	// Streaming bookkeeping. emittedEvents/emittedAlerts mark the prefix
	// already drained live (DrainDerived), so end-of-run consumers can
	// write only the remainder and each event surfaces exactly once.
	// trimmedOH/trimmedNeg/trimmedFrames carry the contribution of
	// Overall entries evicted by TrimSeries, keeping MeanOH and
	// SatisfactionScore exact on bounded streams whose series were cut.
	emittedEvents, emittedAlerts int
	trimmedOH, trimmedNeg        float64
	trimmedFrames                int
}

// FreshEvents returns the events not yet drained live — everything for
// a plain end-of-run analysis, only the tail closed since the last
// DrainDerived on a live stream.
func (r *Result) FreshEvents() []ECEvent { return r.Events[r.emittedEvents:] }

// FreshAlerts is FreshEvents for alerts.
func (r *Result) FreshAlerts() []Alert { return r.Alerts[r.emittedAlerts:] }

// Options tune the analyzer. Callers pass the zero value, which selects
// the calibrated defaults; the fields are seams for the package's tests
// and benchmarks.
type Options struct {
	// smoothWindow is the trailing majority-vote window (frames) for
	// the gaze layer; it absorbs per-frame detector flicker (default 9).
	smoothWindow int
	// minECFrames is the minimum smoothed run length to report an
	// eye-contact event (default 12 ≈ 0.5 s at 25 fps, matching how
	// briefly humans must lock eyes for "contact").
	minECFrames int
	// emotionHold is how many consecutive frames a new emotion must
	// persist before an emotion-change alert fires (default 5).
	emotionHold int
}

func (o Options) withDefaults() Options {
	if o.smoothWindow == 0 {
		o.smoothWindow = 9
	}
	if o.minECFrames == 0 {
		o.minECFrames = 12
	}
	if o.emotionHold == 0 {
		o.emotionHold = 5
	}
	return o
}

// ErrClosed is returned when pushing after Finalize.
var ErrClosed = errors.New("layers: analyzer already finalized")

// Analyzer consumes frame inputs and produces the multilayer Result.
// It is a streaming single-goroutine component: Push frames in order,
// then Finalize.
type Analyzer struct {
	opt    Options
	ctx    Context
	ids    []int
	result *Result
	closed bool

	// Ring of recent raw matrices for majority smoothing.
	window []gaze.Matrix
	// Eye-contact run tracking keyed by pair.
	openRuns map[[2]int]int // pair → start frame
	// Emotion state per person for change alerts.
	curEmotion  map[int]emotion.Label
	candEmotion map[int]emotion.Label
	candCount   map[int]int
	// Negative-spike latch so one episode produces one alert.
	negativeLatched bool

	lastIndex int
	lastTime  time.Duration
}

// NewAnalyzer builds an analyzer over a context.
func NewAnalyzer(ctx Context, opt Options) (*Analyzer, error) {
	if len(ctx.Participants) == 0 {
		return nil, fmt.Errorf("layers: context has no participants: %w", ErrClosed)
	}
	ids := ctx.IDs()
	return &Analyzer{
		opt: opt.withDefaults(),
		ctx: ctx,
		ids: ids,
		result: &Result{
			Context:         ctx,
			Summary:         gaze.NewSummary(ids),
			SmoothedSummary: gaze.NewSummary(ids),
		},
		openRuns:    make(map[[2]int]int),
		curEmotion:  make(map[int]emotion.Label),
		candEmotion: make(map[int]emotion.Label),
		candCount:   make(map[int]int),
		lastIndex:   -1,
	}, nil
}

// Push feeds one frame of evidence. Frames must arrive in index order.
func (a *Analyzer) Push(in FrameInput) error {
	if a.closed {
		return ErrClosed
	}
	if in.Index <= a.lastIndex {
		return fmt.Errorf("layers: frame %d after %d: %w", in.Index, a.lastIndex, ErrClosed)
	}
	a.lastIndex = in.Index
	a.lastTime = in.Time
	a.result.Frames++

	// Raw gaze layer.
	if err := a.result.Summary.Add(in.LookAt); err != nil {
		return fmt.Errorf("layers: frame %d: %w", in.Index, err)
	}

	// Temporal smoothing: trailing majority over the window.
	a.window = append(a.window, in.LookAt)
	if len(a.window) > a.opt.smoothWindow {
		a.window = a.window[1:]
	}
	smoothed := a.majority()
	if err := a.result.SmoothedSummary.Add(smoothed); err != nil {
		return fmt.Errorf("layers: frame %d: %w", in.Index, err)
	}

	// Eye-contact events over the smoothed matrix.
	a.updateECRuns(smoothed, in)

	// Speaker inference: the participant receiving gaze from at least
	// half of the other participants is read as holding the floor.
	a.result.InferredSpeakers = append(a.result.InferredSpeakers, inferSpeaker(smoothed))

	// Overall emotion (Fig. 5).
	a.result.Overall = append(a.result.Overall, a.overall(in))

	// Emotion-change alerts.
	a.updateEmotionAlerts(in)

	return nil
}

// majority computes the element-wise majority matrix of the window.
func (a *Analyzer) majority() gaze.Matrix {
	out := gaze.NewMatrix(a.ids)
	half := len(a.window) / 2
	for i := range a.ids {
		for j := range a.ids {
			votes := 0
			for _, m := range a.window {
				votes += m.M[i][j]
			}
			if votes > half {
				out.M[i][j] = 1
			}
		}
	}
	return out
}

// updateECRuns opens/extends/closes eye-contact runs from the smoothed
// matrix.
func (a *Analyzer) updateECRuns(m gaze.Matrix, in FrameInput) {
	active := make(map[[2]int]bool)
	for _, p := range m.EyeContactPairs() {
		active[p] = true
		if _, open := a.openRuns[p]; !open {
			a.openRuns[p] = in.Index
			a.result.Alerts = append(a.result.Alerts, Alert{
				Kind: AlertECStart, Frame: in.Index, Time: in.Time,
				Person: p[0], Other: p[1],
				Detail: fmt.Sprintf("eye contact P%d↔P%d begins", p[0]+1, p[1]+1),
			})
		}
	}
	for p, start := range a.openRuns {
		if !active[p] {
			a.closeRun(p, start, in.Index, in.Time)
		}
	}
}

// closeRun finalises an EC run if it is long enough.
func (a *Analyzer) closeRun(p [2]int, start, end int, now time.Duration) {
	delete(a.openRuns, p)
	// Runs shorter than minECFrames are dropped: alerts are a live
	// feed, but the event list is the curated record.
	if end-start < a.opt.minECFrames {
		return
	}
	a.result.Events = append(a.result.Events, ECEvent{
		A: p[0], B: p[1], Start: start, End: end,
		StartTime: scaleTime(now, start, a.lastIndex),
		EndTime:   scaleTime(now, end, a.lastIndex),
	})
}

// scaleTime estimates the timestamp of a frame from the latest (frame,
// time) pair, assuming a uniform frame rate.
func scaleTime(now time.Duration, frame, lastIndex int) time.Duration {
	if lastIndex <= 0 {
		return 0
	}
	return time.Duration(float64(now) * float64(frame) / float64(lastIndex))
}

// overall computes the Fig. 5 estimate for one frame.
func (a *Analyzer) overall(in FrameInput) OverallEmotion {
	oe := OverallEmotion{Index: in.Index, Time: in.Time}
	var total float64
	for _, id := range a.ids {
		obs, ok := in.Emotions[id]
		if !ok || obs.Confidence <= 0 {
			continue
		}
		oe.Observed++
		oe.Share[obs.Label] += obs.Confidence
		total += obs.Confidence
	}
	if total > 0 {
		for l := range oe.Share {
			oe.Share[l] /= total
		}
	}
	oe.OH = oe.Share[emotion.Happy] * 100

	// Table-level negative spike alert with a latch.
	var negative float64
	for _, l := range emotion.AllLabels() {
		if l.Negative() {
			negative += oe.Share[l]
		}
	}
	if negative > 0.5 && !a.negativeLatched {
		a.negativeLatched = true
		a.result.Alerts = append(a.result.Alerts, Alert{
			Kind: AlertNegativeSpike, Frame: in.Index, Time: in.Time,
			Person: -1, Other: -1,
			Detail: fmt.Sprintf("negative affect at %.0f%% of the table", negative*100),
		})
	} else if negative < 0.3 {
		a.negativeLatched = false
	}
	return oe
}

// updateEmotionAlerts fires a change alert when a participant's emotion
// switches and holds for emotionHold frames.
func (a *Analyzer) updateEmotionAlerts(in FrameInput) {
	for _, id := range a.ids {
		obs, ok := in.Emotions[id]
		if !ok {
			continue
		}
		cur, has := a.curEmotion[id]
		if !has {
			a.curEmotion[id] = obs.Label
			continue
		}
		if obs.Label == cur {
			a.candCount[id] = 0
			continue
		}
		if a.candEmotion[id] == obs.Label {
			a.candCount[id]++
		} else {
			a.candEmotion[id] = obs.Label
			a.candCount[id] = 1
		}
		if a.candCount[id] >= a.opt.emotionHold {
			a.result.Alerts = append(a.result.Alerts, Alert{
				Kind: AlertEmotionChange, Frame: in.Index, Time: in.Time,
				Person: id, Other: -1,
				Detail: fmt.Sprintf("P%d: %v → %v", id+1, cur, obs.Label),
			})
			a.curEmotion[id] = obs.Label
			a.candCount[id] = 0
		}
	}
}

// DrainDerived returns the eye-contact events and alerts closed since
// the last drain — the live feed a streaming run emits at its window
// cadence. With trim set (bounded streams) the drained entries leave
// the retained lists entirely; otherwise they stay, marked emitted, so
// FreshEvents/FreshAlerts exclude them at end of run. Either way each
// event and alert is surfaced exactly once across the rolling and
// final passes.
func (a *Analyzer) DrainDerived(trim bool) ([]ECEvent, []Alert) {
	r := a.result
	ev, al := r.Events[r.emittedEvents:], r.Alerts[r.emittedAlerts:]
	if trim {
		ev = append([]ECEvent(nil), ev...)
		al = append([]Alert(nil), al...)
		r.Events = r.Events[:0]
		r.Alerts = r.Alerts[:0]
		r.emittedEvents, r.emittedAlerts = 0, 0
	} else {
		r.emittedEvents = len(r.Events)
		r.emittedAlerts = len(r.Alerts)
	}
	return ev, al
}

// TrimSeries evicts all but the last keep entries of the per-frame
// series (Overall, InferredSpeakers), folding the dropped Overall
// contribution into running counters so MeanOH and SatisfactionScore
// still aggregate over every frame ever analysed. The copy compacts in
// place, so the backing arrays stop growing — the bounded-memory lever
// for unbounded streams.
func (a *Analyzer) TrimSeries(keep int) {
	if keep < 0 {
		keep = 0
	}
	r := a.result
	if drop := len(r.Overall) - keep; drop > 0 {
		for _, o := range r.Overall[:drop] {
			r.trimmedOH += o.OH
			for _, l := range emotion.AllLabels() {
				if l.Negative() {
					r.trimmedNeg += o.Share[l] * 100
				}
			}
		}
		r.trimmedFrames += drop
		copy(r.Overall, r.Overall[drop:])
		r.Overall = r.Overall[:keep]
	}
	if drop := len(r.InferredSpeakers) - keep; drop > 0 {
		copy(r.InferredSpeakers, r.InferredSpeakers[drop:])
		r.InferredSpeakers = r.InferredSpeakers[:keep]
	}
}

// Finalize closes open runs and returns the result. The analyzer cannot
// be reused afterwards.
func (a *Analyzer) Finalize() *Result {
	if a.closed {
		return a.result
	}
	a.closed = true
	for p, start := range a.openRuns {
		a.closeRun(p, start, a.lastIndex+1, a.lastTime)
	}
	// Only the undrained tail may be reordered: the drained prefix was
	// already emitted downstream in close order. A plain analysis has an
	// empty prefix, so this is the full historical sort.
	sortEvents(a.result.Events[a.result.emittedEvents:])
	return a.result
}

// sortEvents orders events by start frame (stable enough for tests and
// reports).
func sortEvents(ev []ECEvent) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].Start < ev[j-1].Start; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// MeanOH returns the average overall happiness over the event — the
// scalar satisfaction score the smart-restaurant application reads per
// table.
func (r *Result) MeanOH() float64 {
	n := len(r.Overall) + r.trimmedFrames
	if n == 0 {
		return 0
	}
	s := r.trimmedOH
	for _, o := range r.Overall {
		s += o.OH
	}
	return s / float64(n)
}

// SatisfactionScore is MeanOH minus the mean negative-affect share (in
// percent), clamped to [0, 100] — a single customer-satisfaction number
// per the paper's smart-restaurant motivation.
func (r *Result) SatisfactionScore() float64 {
	n := len(r.Overall) + r.trimmedFrames
	if n == 0 {
		return 0
	}
	neg := r.trimmedNeg
	for _, o := range r.Overall {
		for _, l := range emotion.AllLabels() {
			if l.Negative() {
				neg += o.Share[l] * 100
			}
		}
	}
	neg /= float64(n)
	score := r.MeanOH() - neg + 50
	if score < 0 {
		return 0
	}
	if score > 100 {
		return 100
	}
	return score
}

// inferSpeaker returns the participant ID drawing gaze from ≥ half of
// the other participants (ties broken toward the lower ID), or −1.
func inferSpeaker(m gaze.Matrix) int {
	n := len(m.IDs)
	if n < 2 {
		return -1
	}
	best, bestVotes := -1, 0
	for j := range m.IDs {
		votes := 0
		for i := range m.IDs {
			votes += m.M[i][j]
		}
		if votes > bestVotes {
			best, bestVotes = m.IDs[j], votes
		}
	}
	if 2*bestVotes < n-1 {
		return -1
	}
	return best
}

// SpeakerAccuracy compares inferred speakers to a ground-truth series
// (−1 = silence) over the frames where truth names a speaker, returning
// the fraction inferred correctly. Series of different lengths compare
// over the shorter prefix.
func SpeakerAccuracy(inferred, truth []int) float64 {
	n := len(inferred)
	if len(truth) < n {
		n = len(truth)
	}
	considered, correct := 0, 0
	for i := 0; i < n; i++ {
		if truth[i] < 0 {
			continue
		}
		considered++
		if inferred[i] == truth[i] {
			correct++
		}
	}
	if considered == 0 {
		return 0
	}
	return float64(correct) / float64(considered)
}
