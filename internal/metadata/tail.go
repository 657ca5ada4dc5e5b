package metadata

import (
	"context"
	"errors"
	"fmt"
)

// Tail cursors (DESIGN.md §10): a query subscription that first drains
// every matching record already in the repository, then switches to a
// change-data-capture feed of new appends. Registration and the
// history/live watermark are taken under the repository's write lock, so
// the two phases partition the record sequence exactly: records appended
// before Tail returns arrive from the history scan, records appended
// after arrive from the live feed, each exactly once and in ID order
// across the seam.
//
// The live feed is decoupled from segment layout — the append path
// publishes in-memory record values, and neither a segment roll nor a
// 3-phase Compact touches the in-memory store or the subscriber
// registry — so cursors survive both without loss, duplication, or
// reordering. The cost of a subscriber on the append hot path is one
// non-blocking channel send per append.
//
// Backpressure is pluggable (DESIGN.md §11): by default a subscriber
// whose queue overflows is dropped with ErrLagging (the append path
// never blocks and never buffers without bound), but a TailOverflow
// policy can divert the overflow elsewhere — e.g. a disk-backed FIFO —
// and feed it back to the cursor in order.

// defaultTailBuffer is the live-queue capacity when TailOpts.Buffer is 0.
const defaultTailBuffer = 1024

// TailOverflow is a pluggable backpressure policy consulted when a tail
// subscriber's live queue is full. Once the first record is diverted the
// subscription permanently routes every subsequent append through the
// policy — the cursor drains the queued channel prefix, then switches to
// the policy's feed, so order is preserved across the seam.
//
// Divert runs on the append path under the repository's write lock: it
// must not block (an in-memory or buffered-file append is fine; a
// network round trip is not). Returning an error terminates the
// subscription with that error once the cursor has drained what was
// already buffered.
//
// TryNext and Ready are called only by the cursor's consumer goroutine.
// The policy must synchronise Divert against TryNext itself. Ready's
// channel must receive (or be closeable) after every Divert so a parked
// consumer wakes; the capacity-1 notification pattern
// (select { case ready <- struct{}{}: default: }) is sufficient because
// the consumer always drains TryNext to empty before parking again.
type TailOverflow interface {
	// Divert absorbs one record the live queue could not hold.
	Divert(rec Record) error
	// TryNext returns the next diverted record without blocking; ok
	// reports whether one was available. A non-nil error is terminal
	// for the cursor (e.g. the spill file went bad).
	TryNext() (rec Record, ok bool, err error)
	// Ready returns a channel that receives after records become
	// available, so the consumer can park between TryNext polls.
	Ready() <-chan struct{}
}

// TailOpts tunes a tail subscription.
type TailOpts struct {
	// Buffer is the live-feed queue capacity in records (default 1024).
	// The append path never blocks on a slow subscriber: when the queue
	// is full the subscription is dropped and the cursor, after draining
	// what was queued, terminates with ErrLagging — unless Overflow is
	// set, in which case the overflow diverts there instead. The queue
	// receives every append — filtering happens on the consumer side —
	// so size it for the repository's total append rate, not the match
	// rate.
	Buffer int
	// Overflow, when non-nil, replaces the drop-with-ErrLagging overflow
	// behaviour: records the queue cannot hold divert to the policy and
	// the cursor replays them, in order, after the queued prefix. A
	// Divert error (e.g. a spill quota exhausted) terminates the
	// subscription with that error instead.
	Overflow TailOverflow
}

// tailSub is the repository-side half of a tail cursor. Membership in
// Repository.subs and the done/divert transitions are guarded by
// Repository.mu; the consumer reads err only after done is closed, so
// the close happens-before edge publishes it.
type tailSub struct {
	ch       chan Record   // live feed, publisher → consumer
	done     chan struct{} // closed (under mu) on overflow, cursor Close, or repository Close
	divert   chan struct{} // closed (under mu) when the overflow policy takes over
	overflow TailOverflow  // nil = drop with ErrLagging on overflow
	err      error         // terminal reason, written before close(done)
	dead     bool          // guarded by mu; makes the done transition idempotent
	diverted bool          // guarded by mu; all further publishes route to overflow
}

// publishLocked feeds one freshly appended record to every live
// subscriber. Caller holds the write lock. Sends never block: a full
// queue either drops that subscription with ErrLagging or, with a
// TailOverflow policy, diverts the record (and all subsequent ones) to
// the policy instead of stalling the append path or buffering without
// bound.
func (r *Repository) publishLocked(rec Record) {
	if len(r.subs) == 0 {
		return
	}
	live := r.subs[:0]
	for _, s := range r.subs {
		if s.dead {
			continue
		}
		if s.diverted {
			if err := s.overflow.Divert(rec); err != nil {
				r.killSubLocked(s, err)
			} else {
				live = append(live, s)
			}
			continue
		}
		select {
		case s.ch <- rec:
			live = append(live, s)
		default:
			if s.overflow == nil {
				r.killSubLocked(s, ErrLagging)
				continue
			}
			// First overflow: switch the subscription to the policy.
			// Everything from this record on diverts, so the consumer
			// sees the queued channel prefix followed by the policy's
			// feed — the original order.
			s.diverted = true
			close(s.divert)
			if err := s.overflow.Divert(rec); err != nil {
				r.killSubLocked(s, err)
			} else {
				live = append(live, s)
			}
		}
	}
	for i := len(live); i < len(r.subs); i++ {
		r.subs[i] = nil
	}
	r.subs = live
}

// killSubLocked terminates a subscription with the given reason.
// Idempotent; caller holds the write lock.
func (r *Repository) killSubLocked(s *tailSub, err error) {
	if s.dead {
		return
	}
	s.dead = true
	s.err = err
	close(s.done)
}

// dropSubLocked removes s from the registry (cursor Close path).
func (r *Repository) dropSubLocked(s *tailSub) {
	for i, cur := range r.subs {
		if cur == s {
			last := len(r.subs) - 1
			r.subs[i] = r.subs[last]
			r.subs[last] = nil
			r.subs = r.subs[:last]
			return
		}
	}
}

// TailCursor streams query matches: history first, then live appends.
// Like Iter it is a single-consumer cursor — Next and Close must be
// called from one goroutine, but it may run concurrently with appends,
// segment rolls, and Compact on the same repository.
type TailCursor struct {
	repo     *Repository
	sub      *tailSub
	expr     Expr
	hist     *Iter // history phase; nil once drained
	noLive   bool  // read-only repository: no live phase can ever fire
	spilling bool  // live feed switched to the overflow policy
	err      error // terminal state for the consumer side
	closed   bool  // Close ran; makes Close idempotent
	closeRet error // what Close returned (stable across double Close)
}

// Tail subscribes to expr: the cursor first yields every matching record
// already appended (in ID order, via the query planner), then blocks on
// a live feed of matching future appends. The cursor must be Closed when
// abandoned. On a read-only repository no writer can exist in this
// process, so there is no live phase: once history is exhausted Next
// terminates with ErrTailEnded instead of blocking forever. See TailOpts
// for the overflow contract.
func (r *Repository) Tail(expr Expr, opts TailOpts) (*TailCursor, error) {
	if expr == nil {
		return nil, fmt.Errorf("metadata: nil tail expression: %w", ErrBadQuery)
	}
	if opts.Buffer < 0 {
		return nil, fmt.Errorf("metadata: negative tail buffer %d: %w", opts.Buffer, ErrBadQuery)
	}
	buf := opts.Buffer
	if buf == 0 {
		buf = defaultTailBuffer
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	// Plan and subscribe under one write-lock hold: the plan's snapshot
	// ends exactly where the live feed begins.
	p := r.planLocked(expr, OrderID)
	c := &TailCursor{
		repo: r,
		expr: expr,
		hist: newIter(p, QueryOpts{Order: OrderID}, 0),
	}
	if r.opts.readOnly {
		// Appends are structurally impossible through this handle, so a
		// subscription would never fire; the cursor is history-only.
		c.noLive = true
		r.mu.Unlock()
		return c, nil
	}
	sub := &tailSub{
		ch:       make(chan Record, buf),
		done:     make(chan struct{}),
		divert:   make(chan struct{}),
		overflow: opts.Overflow,
	}
	r.subs = append(r.subs, sub)
	c.sub = sub
	r.mu.Unlock()
	return c, nil
}

// Next blocks until the next matching record, the context is cancelled,
// or the subscription terminates. A context error is returned as-is and
// is not terminal — the cursor remains usable. Terminal errors are
// ErrLagging (queue overflow without an Overflow policy), a Divert or
// TryNext error from the policy, ErrTailEnded (history exhausted on a
// read-only repository, which has no live phase), ErrClosed (repository
// or cursor closed), or a query-evaluation error.
func (c *TailCursor) Next(ctx context.Context) (Record, error) {
	if c.err != nil {
		return Record{}, c.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// History phase: drain the planner's snapshot in ID order.
	if c.hist != nil {
		if err := ctx.Err(); err != nil {
			return Record{}, err
		}
		if rec, ok := c.hist.Next(); ok {
			return rec, nil
		}
		if err := c.hist.Err(); err != nil {
			c.fail(err)
			return Record{}, err
		}
		c.hist.Close()
		c.hist = nil
	}
	if c.noLive {
		c.err = ErrTailEnded
		return Record{}, c.err
	}
	// Live phase: the feed carries every append; filter consumer-side so
	// the publisher stays O(1) per subscriber regardless of expression.
	for {
		if c.spilling {
			rec, ok, err := c.pollOverflow()
			if err != nil {
				return Record{}, err
			}
			if ok {
				return rec, nil
			}
			select {
			case <-c.sub.overflow.Ready():
				continue
			case <-c.sub.done:
				return c.drainDone()
			case <-ctx.Done():
				return Record{}, ctx.Err()
			}
		}
		select {
		case rec := <-c.sub.ch:
			ok, err := c.eval(rec)
			if err != nil {
				return Record{}, err
			}
			if ok {
				return rec, nil
			}
		case <-c.sub.divert:
			// The publisher switched to the overflow policy. Drain the
			// queued channel prefix first — it precedes every diverted
			// record — then poll the policy.
			for !c.spilling {
				select {
				case rec := <-c.sub.ch:
					ok, err := c.eval(rec)
					if err != nil {
						return Record{}, err
					}
					if ok {
						return rec, nil
					}
				default:
					c.spilling = true
				}
			}
		case <-c.sub.done:
			return c.drainDone()
		case <-ctx.Done():
			return Record{}, ctx.Err()
		}
	}
}

// drainDone runs after the subscription terminated: deliver what the
// publisher queued (channel prefix, then any diverted records) before
// surfacing the terminal reason — a killed subscription never swallows
// records it already accepted.
func (c *TailCursor) drainDone() (Record, error) {
	for {
		select {
		case rec := <-c.sub.ch:
			ok, err := c.eval(rec)
			if err != nil {
				return Record{}, err
			}
			if ok {
				return rec, nil
			}
		default:
			if c.sub.diverted {
				rec, ok, err := c.pollOverflow()
				if err != nil {
					return Record{}, err
				}
				if ok {
					return rec, nil
				}
			}
			c.err = c.sub.err
			if c.err == nil {
				c.err = ErrClosed
			}
			return Record{}, c.err
		}
	}
}

// eval applies the subscription's expression to one live record, failing
// the cursor on evaluation errors.
func (c *TailCursor) eval(rec Record) (bool, error) {
	ok, err := c.expr.Eval(rec)
	if err != nil {
		c.fail(err)
		return false, err
	}
	return ok, nil
}

// pollOverflow pops diverted records until one matches the expression
// or the policy reports empty. It must fully drain non-matching records
// in one call — TailOverflow.Ready only signals new Diverts, so a
// consumer that parked with records still queued would miss its wakeup.
func (c *TailCursor) pollOverflow() (Record, bool, error) {
	for {
		rec, ok, err := c.sub.overflow.TryNext()
		if err != nil {
			c.fail(err)
			return Record{}, false, err
		}
		if !ok {
			return Record{}, false, nil
		}
		hit, err := c.eval(rec)
		if err != nil {
			return Record{}, false, err
		}
		if hit {
			return rec, true, nil
		}
	}
}

// fail records a terminal consumer-side error and unsubscribes so the
// publisher stops feeding a cursor nobody will drain.
func (c *TailCursor) fail(err error) {
	c.err = err
	if c.sub == nil {
		return
	}
	r := c.repo
	r.mu.Lock()
	r.dropSubLocked(c.sub)
	r.killSubLocked(c.sub, err)
	r.mu.Unlock()
}

// Kill terminates the subscription with reason (e.g. a server's drain
// sentinel). The standard kill contract applies: Next first drains the
// already-queued matching records (and any diverted ones), then
// surfaces reason as the terminal error. Safe to call from any
// goroutine, concurrently with Next; no-op on history-only cursors and
// on cursors already terminal.
func (c *TailCursor) Kill(reason error) {
	if c.sub == nil || reason == nil {
		return
	}
	r := c.repo
	r.mu.Lock()
	r.dropSubLocked(c.sub)
	r.killSubLocked(c.sub, reason)
	r.mu.Unlock()
}

// Err returns the cursor's terminal error, if any (nil while live).
// It is stable: Close never masks a prior terminal error.
func (c *TailCursor) Err() error { return c.err }

// Close unsubscribes and releases the cursor. Idempotent: a second
// Close returns the same value as the first, and Next after Close
// reports the cursor's terminal error (ErrClosed after a clean close).
//
// Close surfaces a prior terminal *failure* — ErrLagging, an overflow
// policy error, a query-evaluation error, an error from the history
// iterator's own close — so a deferred Close does not silently discard
// it. The benign terminal states are not failures and return nil: a
// clean close of a live cursor, ErrTailEnded (the read-only cursor's
// natural end), and ErrClosed (the repository closed under the cursor).
func (c *TailCursor) Close() error {
	if c.closed {
		return c.closeRet
	}
	c.closed = true
	if c.hist != nil {
		if herr := c.hist.Close(); herr != nil && c.err == nil {
			c.err = herr
		}
		c.hist = nil
	}
	prior := c.err
	if c.err == nil {
		c.err = ErrClosed
	}
	if c.sub != nil {
		r := c.repo
		r.mu.Lock()
		r.dropSubLocked(c.sub)
		r.killSubLocked(c.sub, ErrClosed)
		r.mu.Unlock()
	}
	if prior != nil && !errors.Is(prior, ErrClosed) && !errors.Is(prior, ErrTailEnded) {
		c.closeRet = prior
	}
	return c.closeRet
}
