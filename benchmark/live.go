package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/dievent/client"
	"repro/internal/core"
	"repro/internal/metadata"
)

// --- phase 3: live ---

// liveFrame holds the instants of one paced frame on its way from the
// camera clock to the remote follower.
type liveFrame struct {
	mon        time.Time // Monitor(i): the pipeline finished the frame
	fwd0, tail time.Time // forwarder picked the frame up / had its records
	app1       time.Time // client.Append returned
	cum        int       // follower-visible records forwarded through this frame (0 = none)
	req        int       // traced request id
	root, app  int       // reserved span ids
}

// phaseLive is the open-loop frame → follower path: a single-worker
// pipeline paced at the camera rate into an in-memory repository, a
// forwarder draining a tail cursor into one client.Append per frame,
// dieventd, and one remote follower.
func (c *cycle) phaseLive() error {
	w := c.b.w
	n := w.liveFrames
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	fwd, err := c.node.client()
	if err != nil {
		return err
	}
	fol, err := c.node.client()
	if err != nil {
		return err
	}
	base := w.historyFrames() + streamLive*streamStride
	fs, err := fol.Follow(ctx, fmt.Sprintf("frame >= %d AND frame < %d", base, base+streamStride))
	if c.op(err) != nil {
		return err
	}
	defer fs.Close()
	// A first marker proves the subscription is past its history and
	// live; a last one ends the follower.
	if err := c.appendMarker(ctx, fwd, base); err != nil {
		return err
	}
	if rec, err := fs.Next(); err != nil || rec.Label != labelMarker {
		return fmt.Errorf("follower not live: %v %v", rec, err)
	}

	repo := metadata.NewMem()
	defer repo.Close()
	cur, err := repo.Tail(c.b.allExpr, metadata.TailOpts{})
	if err != nil {
		return err
	}
	defer cur.Close()

	frames := make([]liveFrame, n+1) // +1: the end-of-run records
	marks := make(chan liveMark, n+1)

	var recvAt []time.Time
	var recvd []recKey
	folDone := make(chan error, 1)
	go func() {
		for {
			rec, err := fs.Next()
			now := time.Now()
			if err != nil {
				folDone <- err
				return
			}
			if rec.Label == labelMarker {
				folDone <- nil
				return
			}
			recvAt = append(recvAt, now)
			recvd = append(recvd, keyOf(rec))
		}
	}()
	var sent []recKey
	fwdDone := make(chan error, 1)
	go func() {
		var err error
		sent, err = c.forward(ctx, cur, fwd, marks, frames, base)
		fwdDone <- err
	}()

	p := newPacer(time.Now(), w.liveFPS, n)
	_, runErr := c.b.live.RunStream(core.StreamOptions{
		Ctx: ctx, Frames: n, Cycle: true, Live: true, FlushEvery: 1, Repo: repo,
		Monitor: func(i int) {
			marks <- liveMark{i, repo.Len(), time.Now()}
			if i+1 < n {
				p.wait(i + 1)
			}
		},
	})
	marks <- liveMark{n, repo.Len(), time.Now()}
	close(marks)
	fwdErr := <-fwdDone
	if err := errors.Join(runErr, fwdErr); c.op(err) != nil {
		cancel()
		<-folDone
		return err
	}
	if err := c.appendMarker(ctx, fwd, base); err != nil {
		cancel()
		<-folDone
		return err
	}
	if err := <-folDone; err != nil {
		return fmt.Errorf("follower: %w", err)
	}

	// Guard: the follower saw every forwarded record exactly once, in
	// order.
	if len(recvd) != len(sent) {
		return fmt.Errorf("guard: follower received %d records, forwarder sent %d", len(recvd), len(sent))
	}
	for i := range sent {
		got := recvd[i]
		if i > 0 && got.ID <= recvd[i-1].ID {
			return fmt.Errorf("guard: follower record %d out of order (id %d after %d)", i, got.ID, recvd[i-1].ID)
		}
		got.ID = 0
		if got != sent[i] {
			return fmt.Errorf("guard: follower record %d is %+v, forwarder sent %+v", i, got, sent[i])
		}
	}

	var lat []float64
	for i := 0; i < n; i++ {
		f := &frames[i]
		c.out.attempted++
		if f.cum == 0 {
			// The frame stored nothing a follower could see (no face
			// classified): nothing to deliver, nothing failed.
			continue
		}
		recv := recvAt[f.cum-1]
		lat = append(lat, ms(recv.Sub(p.due(i))))
		if c.tr == nil {
			continue
		}
		c.tr.finish(f.root, p.due(i), recv)
		c.tr.add("core.frame", f.root, f.req, p.due(i), f.mon)
		c.tr.add("fwd.tail_next", f.root, f.req, f.fwd0, f.tail)
		c.tr.finish(f.app, f.tail, f.app1)
		if h, ok := c.node.meter.handledReq(f.req); ok && recv.After(h.end) {
			c.tr.add("follow.deliver", f.app, f.req, h.end, recv)
		}
	}
	if len(lat) < n/2 {
		return fmt.Errorf("guard: only %d of %d live frames delivered a record", len(lat), n)
	}
	c.latency("frame_to_follow", "live", lat)
	c.out.v["live.late_ms_per_frame"] = meanMS(p.late)
	return nil
}

type liveMark struct {
	frame, upto int
	at          time.Time
}

// appendMarker appends one marker record on the live stream's frame
// range.
func (c *cycle) appendMarker(ctx context.Context, cl *client.Client, frame int) error {
	err := cl.Append(ctx, []metadata.Record{{
		Kind: metadata.KindAnnotation, Frame: frame, FrameEnd: frame + 1, Person: -1, Other: -1, Label: labelMarker,
	}})
	if c.op(err) == nil {
		c.acked++
	}
	return err
}

// forward is the benchmark's forwarder: for every frame the pipeline
// finished it drains the tail cursor up to the repository length seen
// in Monitor, moves the records onto the tenant's frame axis past the
// history, and sends them as one client.Append. It returns what a
// follower of that frame range must receive.
func (c *cycle) forward(ctx context.Context, cur *metadata.TailCursor, cl *client.Client, marks <-chan liveMark, frames []liveFrame, base int) ([]recKey, error) {
	var sent []recKey
	var batch []metadata.Record
	consumed, cum := 0, 0
	for m := range marks {
		fwd0 := time.Now()
		batch = batch[:0]
		visible := 0
		for consumed < m.upto {
			rec, err := cur.Next(ctx)
			if err != nil {
				return sent, fmt.Errorf("forwarder tail: %w", err)
			}
			consumed++
			rec.ID = 0
			if rec.Frame >= 0 {
				rec.Frame += base
				if rec.FrameEnd >= 0 {
					rec.FrameEnd += base
				}
				visible++
				sent = append(sent, keyOf(rec))
			}
			batch = append(batch, rec)
		}
		if len(batch) == 0 {
			continue
		}
		f := &frames[m.frame]
		f.mon, f.fwd0, f.tail = m.at, fwd0, time.Now()
		if visible > 0 {
			cum += visible
			f.cum = cum
		}
		f.req = c.tr.request()
		f.root = c.tr.reserve("live.frame", 0, f.req)
		f.app = c.tr.reserve("client.append", f.root, f.req)
		err := cl.Append(withSpan(ctx, f.req, f.app), batch)
		f.app1 = time.Now()
		if c.op(err) != nil {
			return sent, fmt.Errorf("forwarder append: %w", err)
		}
		c.acked += len(batch)
	}
	return sent, nil
}
