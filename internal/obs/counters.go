package obs

import "sync/atomic"

// ProcessCounter is a process-wide int64 total. Every Diagnostics and
// ServeCollector mirrors its events into these, so the totals survive
// individual collectors. They are plain atomics: this package links no
// transport code, and the bgperfd daemon (internal/serve) publishes them as
// expvars at /debug/vars under their names.
type ProcessCounter struct {
	name string
	v    atomic.Int64
}

// processCounters lists every counter in registration order. It is filled
// by package-level initialisation only, so reads need no lock.
var processCounters []*ProcessCounter

func newProcessCounter(name string) *ProcessCounter {
	c := &ProcessCounter{name: name}
	processCounters = append(processCounters, c)
	return c
}

// Name returns the counter's published name (e.g. "bgperf.solves").
func (c *ProcessCounter) Name() string { return c.name }

// Value returns the counter's current total.
func (c *ProcessCounter) Value() int64 { return c.v.Load() }

func (c *ProcessCounter) add(delta int64) { c.v.Add(delta) }

// ProcessCounters returns every process-wide counter, in registration order.
// The slice is shared; callers must not modify it.
func ProcessCounters() []*ProcessCounter { return processCounters }
