package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metadata"
	"repro/internal/scene"
)

// Streaming execution (DESIGN.md §10): RunStream drives the stage graph
// as an online process — frame states come from a source that may cycle
// the scenario into an unbounded synthetic stream, windowed stages fire
// their RunEmit operators mid-stream, and cancellation finalizes a
// partial result instead of discarding the run. Run is RunStream with
// the zero options.

// StreamOptions configures one streaming execution.
type StreamOptions struct {
	// Ctx cancels the stream; the run winds down at the next frame
	// boundary and finalizes what it consumed (Result.Interrupted).
	// nil streams to completion.
	Ctx context.Context
	// Frames is the total number of frames to ingest (0 = one pass over
	// the scenario, i.e. exactly what Run analyses).
	Frames int
	// Cycle allows Frames beyond the scenario's length by replaying the
	// script with continuing frame indexes and timestamps — the
	// unbounded-stream source. Without it, exceeding the scenario is an
	// error.
	Cycle bool
	// Live makes windowed stages emit live- records (live-phase,
	// live-summary, early attention spans …) at their Emit cadences, so
	// tail-cursor followers see derived output while the stream runs.
	Live bool
	// Bounded holds memory steady on unbounded streams: at Emit ticks
	// windowed stages drain closed events/spans and trim per-frame
	// series to their windows. The final Result is then partial —
	// exact aggregates, truncated series.
	Bounded bool
	// FlushEvery forces the raw-record batch out every N frames so
	// followers see observations with bounded latency (0 = flush only
	// at the usual batch size).
	FlushEvery int
	// Repo, when non-nil, is a caller-owned open repository the stream
	// ingests into; the caller can Tail it concurrently (in-process
	// follow-while-ingesting) and keeps ownership of Close. nil opens
	// a repository from the pipeline Config as usual.
	Repo *metadata.Repository
	// Monitor, when non-nil, observes the stream after every completed
	// frame (the bounded-memory gate's probe; also a progress hook).
	Monitor func(frame int)

	// discardRaw drops queued raw per-frame records instead of
	// appending them; live derived, context and end-of-run records
	// still write. A test seam: the bounded-memory test measures the
	// pipeline's own heap, not the store's growth.
	discardRaw bool
}

// PhaseSpan is one contiguous run of a decoded dining phase.
type PhaseSpan struct {
	// Phase is the activity name ("arriving", "ordering", "eating",
	// "talking", "paying").
	Phase string
	// Start and End delimit the span's frames (End exclusive).
	Start, End int
}

// RunStream executes the pipeline as an online stream. See
// StreamOptions; the zero options are Run.
func (p *Pipeline) RunStream(opts StreamOptions) (*Result, error) {
	if opts.Frames < 0 {
		return nil, fmt.Errorf("core: negative stream length %d: %w", opts.Frames, ErrBadConfig)
	}
	if opts.FlushEvery < 0 {
		return nil, fmt.Errorf("core: negative flush cadence %d: %w", opts.FlushEvery, ErrBadConfig)
	}
	base := p.scenarioFrames()
	frames := opts.Frames
	if frames == 0 {
		frames = base
	}
	if frames > base && !opts.Cycle {
		return nil, fmt.Errorf("core: stream of %d frames exceeds the %d-frame scenario (set Cycle for an unbounded synthetic stream): %w",
			frames, base, ErrBadConfig)
	}
	graph, b, err := p.buildStages(false, frames)
	if err != nil {
		return nil, err
	}
	return p.run(graph, b, opts, nil)
}

// cycleFrames wraps the simulator into an unbounded source: past the
// scenario's end the script replays with the frame index continuing and
// the timestamp extended along the scenario's own clock, so downstream
// consumers see one coherent stream, not restarts.
func cycleFrames(sim *scene.Simulator, period int) func(int) scene.FrameState {
	fps := sim.Scenario().FPS
	return func(i int) scene.FrameState {
		if i < period {
			return sim.FrameState(i)
		}
		fs := sim.FrameState(i % period)
		fs.Index = i
		fs.Time = time.Duration(float64(i) / fps * float64(time.Second))
		return fs
	}
}
