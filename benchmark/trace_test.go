package main

import (
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer()
	at := func(usec int) time.Time { return tr.epoch.Add(time.Duration(usec) * time.Microsecond) }
	// live.frame [0,1000] ⊃ core.frame [0,600], fwd.tail_next [620,630],
	// client.append [630,900] ⊃ service.handle_append [700,850],
	// follow.deliver [850,1000] caused by client.append and outliving it.
	root := tr.add("live.frame", 0, 1, at(0), at(1000))
	tr.add("core.frame", root, 1, at(0), at(600))
	tr.add("fwd.tail_next", root, 1, at(620), at(630))
	app := tr.add("client.append", root, 1, at(630), at(900))
	tr.add("service.handle_append", app, 1, at(700), at(850))
	tr.add("follow.deliver", app, 1, at(850), at(1000))

	b := selfBudget(tr.finished(), "live.frame")
	want := map[string]int64{
		"live.frame":            20_000, // the gap before the forwarder picked the frame up
		"core.frame":            600_000,
		"fwd.tail_next":         10_000,
		"client.append":         70_000, // 270 − handler 150 − the 50 follow.deliver covers
		"service.handle_append": 150_000,
		"follow.deliver":        150_000,
	}
	for name, ns := range want {
		if b.SelfNS[name] != ns {
			t.Errorf("self(%s) = %d ns, want %d", name, b.SelfNS[name], ns)
		}
	}
	if b.Roots != 1 || b.WholeNS != 1_000_000 || b.partsNS() != b.WholeNS || b.gap() != 0 {
		t.Errorf("parts %d, whole %d, gap %v: nested spans must sum to their root", b.partsNS(), b.WholeNS, b.gap())
	}
}

func TestSelfTimeClipsToRootAndShowsOverlap(t *testing.T) {
	tr := newTracer()
	at := func(usec int) time.Time { return tr.epoch.Add(time.Duration(usec) * time.Microsecond) }
	// The response of client.append is still in flight when the
	// follower already has the record: what follows the root's end is
	// not the root's time.
	root := tr.add("live.frame", 0, 1, at(0), at(100))
	tr.add("client.append", root, 1, at(40), at(160))
	b := selfBudget(tr.finished(), "live.frame")
	if b.SelfNS["client.append"] != 60_000 || b.SelfNS["live.frame"] != 40_000 || b.gap() != 0 {
		t.Errorf("clipped budget = %v (gap %v), want append 60us + self 40us", b.SelfNS, b.gap())
	}

	// Two siblings covering the same interval are counted twice: the
	// gap is how the runner notices spans that do not nest.
	tr2 := newTracer()
	at2 := func(usec int) time.Time { return tr2.epoch.Add(time.Duration(usec) * time.Microsecond) }
	r2 := tr2.add("client.query", 0, 1, at2(0), at2(100))
	tr2.add("a", r2, 1, at2(0), at2(60))
	tr2.add("b", r2, 1, at2(30), at2(90))
	if gap := selfBudget(tr2.finished(), "client.query").gap(); gap < 0.29 || gap > 0.31 {
		t.Errorf("overlapping siblings give gap %v, want 0.30", gap)
	}
}

func TestTracerReserveFinishAndOff(t *testing.T) {
	var off *tracer
	if off.request() != 0 || off.reserve("x", 0, 0) != 0 || off.add("x", 0, 0, time.Now(), time.Now()) != 0 || off.finished() != nil {
		t.Error("a nil tracer must record nothing")
	}
	off.finish(0, time.Now(), time.Now())

	tr := newTracer()
	id := tr.reserve("live.frame", 0, tr.request())
	never := tr.reserve("live.frame", 0, tr.request())
	tr.finish(id, tr.epoch, tr.epoch.Add(time.Millisecond))
	spans := tr.finished()
	if len(spans) != 1 || spans[0].ID != id || spans[0].dur() != int64(time.Millisecond) {
		t.Errorf("finished() = %+v, want only span %d (span %d never finished)", spans, id, never)
	}
	if got := unionLength([][2]int64{{0, 10}, {5, 20}, {30, 40}}); got != 30 {
		t.Errorf("unionLength = %d, want 30", got)
	}
}
