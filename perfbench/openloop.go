package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one open-loop request, its times relative to the start of the
// rung.
type outcome struct {
	due, start, end time.Duration
	status          int
	body            []byte
	err             error
}

// latency is the request's time from when it was due, so a stall also
// charges the wait it imposes on the requests queued behind it.
func (o outcome) latency() time.Duration { return o.end - o.due }

// late is how far behind schedule the generator sent the request.
func (o outcome) late() time.Duration { return o.start - o.due }

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// openLoop sends n requests on a fixed schedule with at most conc in
// flight. Requests are taken in due order; a sender that is free sleeps
// until the next request is due, and a request due while every sender is
// busy goes out late. It returns when every request has completed.
func openLoop(n, conc int, due func(i int) time.Duration, send func(i int) (int, []byte, error)) []outcome {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i)
				if wait := time.Until(t0.Add(d)); wait > 0 {
					time.Sleep(wait)
				}
				o := outcome{due: d, start: time.Since(t0)}
				o.status, o.body, o.err = send(i)
				o.end = time.Since(t0)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}
