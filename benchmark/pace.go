package main

import "time"

// pacer is an open-loop schedule: item i is due at start + i·interval
// whatever the system under test is doing, so a stall shows as latency
// on the items behind it instead of as a lower offered rate.
type pacer struct {
	start    time.Time
	interval time.Duration
	// late[i] is how long after its due time item i was actually
	// released (the generator's own lateness, reported beside the
	// latencies it inflates).
	late []time.Duration
}

func newPacer(start time.Time, ratePerSec float64, items int) *pacer {
	return &pacer{
		start:    start,
		interval: time.Duration(float64(time.Second) / ratePerSec),
		late:     make([]time.Duration, 0, items),
	}
}

// due is when item i should be released.
func (p *pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(i) * p.interval)
}

// wait blocks until item i is due and records how late it was released.
// A schedule that has fallen behind never sleeps: it releases at once
// and the lateness carries the backlog.
func (p *pacer) wait(i int) time.Time {
	due := p.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	now := time.Now()
	p.late = append(p.late, lateness(due, now))
	return now
}

// lateness is max(0, released − due).
func lateness(due, released time.Time) time.Duration {
	if d := released.Sub(due); d > 0 {
		return d
	}
	return 0
}

// meanMS is the mean of ds in milliseconds (0 for none).
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
