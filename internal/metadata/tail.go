package metadata

import (
	"context"
	"errors"
	"fmt"
)

// Tail cursors (DESIGN.md §10): a query subscription that first drains
// every matching record already in the repository, then follows new
// appends. The history plan and the live start position are taken
// under the repository's write lock, so the two phases partition the
// record sequence exactly: records appended before Tail returns arrive
// from the history scan, records appended after arrive from the live
// phase, each exactly once and in ID order across the seam.
//
// The live phase is a position in the in-memory record store. The
// store is append-only — a position below store.n is never rewritten,
// and neither a segment roll nor Compact touches it — so the cursor
// reads the records past its position straight from the store, with
// no copy per subscriber and no queue that can overflow: a consumer
// that stalls simply resumes where it stopped. A caught-up cursor parks
// on the repository's wake channel, which the next Append/AppendBatch
// call (or a Kill, or Close) closes.

// TailOpts carries no settings: a cursor reads the record store itself,
// so there is no queue to size and no overflow to route. It stays as
// Tail's second argument so existing callers, the benchmark module
// among them, keep compiling.
type TailOpts struct{}

// TailCursor streams query matches: history first, then live appends.
// Like Iter it is a single-consumer cursor — Next and Close must be
// called from one goroutine, but it may run concurrently with appends,
// segment rolls, and Compact on the same repository. Kill may be called
// from any goroutine.
type TailCursor struct {
	repo     *Repository
	expr     Expr
	hist     *Iter    // history phase; nil once drained
	live     bool     // false on a read-only repository: no live phase can ever fire
	pos      int      // store position of view[0]; the live phase's next record
	view     []Record // store records [pos, pos+len(view)) not yet evaluated
	err      error    // terminal state for the consumer side
	closed   bool     // Close ran; makes Close idempotent
	closeRet error    // what Close returned (stable across double Close)

	// reason and end are set once by Kill, under the repository's write
	// lock: the cursor delivers the matches below end, then reports
	// reason.
	reason error
	end    int
}

// Tail subscribes to expr: the cursor first yields every matching record
// already appended (in ID order, via the query planner), then blocks
// until matching future appends arrive. The cursor must be Closed when
// abandoned. On a read-only repository no writer can exist in this
// process, so there is no live phase: once history is exhausted Next
// terminates with ErrTailEnded instead of blocking forever.
func (r *Repository) Tail(expr Expr, _ TailOpts) (*TailCursor, error) {
	if expr == nil {
		return nil, fmt.Errorf("metadata: nil tail expression: %w", ErrBadQuery)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	// The plan's snapshot ends exactly where the live phase begins.
	p := r.planLocked(expr, OrderID)
	return &TailCursor{
		repo: r,
		expr: expr,
		hist: newIter(p, QueryOpts{Order: OrderID}, 0),
		live: !r.opts.readOnly,
		pos:  r.store.n,
	}, nil
}

// wakeTailsLocked wakes every parked cursor. Called once per append
// call, after its records are in the store, and by Kill and Close; an
// append with no cursor parked does nothing here. Caller holds the
// write lock.
func (r *Repository) wakeTailsLocked() {
	if ch := r.wake.Load(); ch != nil {
		r.wake.Store(nil)
		close(*ch)
	}
}

// Next blocks until the next matching record, the context is cancelled,
// or the cursor terminates. A context error is returned as-is and is
// not terminal — the cursor remains usable. Terminal errors are the
// reason given to Kill (after every match appended before Kill was
// delivered), ErrTailEnded (history exhausted on a read-only
// repository, which has no live phase), ErrClosed (repository or
// cursor closed), or a query-evaluation error.
func (c *TailCursor) Next(ctx context.Context) (Record, error) {
	rec, _, err := c.next(ctx, true)
	return rec, err
}

// TryNext is Next without parking: where Next would block until a
// future append it returns false and no error, and the cursor stays
// usable. A follower writes while TryNext yields and flushes once per
// burst before it blocks in Next.
func (c *TailCursor) TryNext(ctx context.Context) (Record, bool, error) {
	return c.next(ctx, false)
}

// next is Next and TryNext: park says whether a caught-up cursor waits
// for the next append or returns false.
func (c *TailCursor) next(ctx context.Context, park bool) (Record, bool, error) {
	if c.err != nil {
		return Record{}, false, c.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Record{}, false, err
	}
	// History phase: drain the planner's snapshot in ID order.
	if c.hist != nil {
		if rec, ok := c.hist.Next(); ok {
			return rec, true, nil
		}
		if err := c.hist.Err(); err != nil {
			c.err = err
			return Record{}, false, err
		}
		c.hist.Close()
		c.hist = nil
	}
	if !c.live {
		c.err = ErrTailEnded
		return Record{}, false, c.err
	}
	// Live phase: evaluate the store's records past pos in order.
	for {
		for len(c.view) > 0 {
			rec := c.view[0]
			c.view = c.view[1:]
			c.pos++
			ok, err := c.expr.Eval(rec)
			if err != nil {
				c.err = err
				return Record{}, false, err
			}
			if ok {
				return rec, true, nil
			}
		}
		wake, err := c.refill()
		if err != nil {
			c.err = err
			return Record{}, false, err
		}
		if wake == nil {
			continue
		}
		if !park {
			return Record{}, false, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return Record{}, false, ctx.Err()
		}
	}
}

// refill points view at the store records from pos up to the live
// limit (store.n, or the Kill/Close position), at most one store chunk
// at a time. Positions below store.n are never rewritten, so the view
// stays valid after the read lock is released. With nothing to read it
// returns the terminal reason if there is one, else the wake channel
// to park on.
func (c *TailCursor) refill() (<-chan struct{}, error) {
	r := c.repo
	r.mu.RLock()
	defer r.mu.RUnlock()
	limit, reason := r.store.n, c.reason
	switch {
	case reason != nil:
		limit = c.end
	case r.closed:
		reason = ErrClosed
	}
	if c.pos < limit {
		chunk := r.store.chunks[c.pos>>storeChunkShift]
		base := c.pos &^ storeChunkMask
		c.view = chunk[c.pos-base : min(limit-base, len(chunk))]
		return nil, nil
	}
	if reason != nil {
		return nil, reason
	}
	// Park. Readers race only each other here (appends, Kill and Close
	// hold the write lock), so the first parked cursor creates the
	// channel and the rest share it; the next of those closes it.
	ch := r.wake.Load()
	if ch == nil {
		fresh := make(chan struct{})
		if r.wake.CompareAndSwap(nil, &fresh) {
			ch = &fresh
		} else {
			ch = r.wake.Load()
		}
	}
	return *ch, nil
}

// Kill terminates the subscription with reason (e.g. a server's drain
// sentinel) at the store's current end: Next first delivers every
// matching record appended before Kill, then surfaces reason as the
// terminal error. Safe to call from any goroutine, concurrently with
// Next; no-op on history-only cursors, on a closed repository, and
// after an earlier Kill.
func (c *TailCursor) Kill(reason error) {
	if !c.live || reason == nil {
		return
	}
	r := c.repo
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.reason != nil || r.closed {
		return
	}
	c.reason, c.end = reason, r.store.n
	r.wakeTailsLocked()
}

// Err returns the cursor's terminal error, if any (nil while live).
// It is stable: Close never masks a prior terminal error.
func (c *TailCursor) Err() error { return c.err }

// Close releases the cursor. Idempotent: a second Close returns the
// same value as the first, and Next after Close reports the cursor's
// terminal error (ErrClosed after a clean close).
//
// Close surfaces a prior terminal *failure* — a Kill reason, a
// query-evaluation error, an error from the history iterator's own
// close — so a deferred Close does not silently discard it. The benign
// terminal states are not failures and return nil: a clean close of a
// live cursor, ErrTailEnded (the read-only cursor's natural end), and
// ErrClosed (the repository closed under the cursor).
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
	c.view = nil
	prior := c.err
	if c.err == nil {
		c.err = ErrClosed
	}
	if prior != nil && !errors.Is(prior, ErrClosed) && !errors.Is(prior, ErrTailEnded) {
		c.closeRet = prior
	}
	return c.closeRet
}
