package main

import "time"

// openLoop sends n windows on a fixed schedule: window i is due at
// start + i*interval whether or not the sink kept up with the ones before
// it. A stalled sink therefore delays the windows behind it, and because
// every latency is taken from the due time, that wait is counted — a closed
// loop would have sent less and hidden it.
type openLoop struct {
	start    time.Time
	interval time.Duration
	n        int
	// sent[i] is when window i was handed to the sink; sent[i] - due(i) is
	// the generator's lateness.
	sent []time.Time
	// backlog is the number of windows that were already due but not yet
	// sent when the schedule ended (start + n*interval).
	backlog int
}

func newOpenLoop(n int, interval time.Duration) *openLoop {
	return &openLoop{interval: interval, n: n, sent: make([]time.Time, n)}
}

func (o *openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(i) * o.interval)
}

// run drives the schedule from the calling goroutine. wait is called with
// the window about to be sent and the time left until it is due (only when
// that is positive); the harness busy-waits or sleeps, the tests substitute a
// fake clock.
func (o *openLoop) run(now func() time.Time, wait func(i int, d time.Duration), sink func(i int) error) error {
	o.start = now()
	end := o.due(o.n)
	for i := 0; i < o.n; i++ {
		if d := o.due(i).Sub(now()); d > 0 {
			wait(i, d)
		}
		t := now()
		o.sent[i] = t
		if t.After(end) {
			o.backlog++
		}
		if err := sink(i); err != nil {
			return err
		}
	}
	return nil
}

// lateness returns sent - due per window.
func (o *openLoop) lateness() []time.Duration {
	out := make([]time.Duration, o.n)
	for i := range out {
		out[i] = o.sent[i].Sub(o.due(i))
	}
	return out
}
