package trace

import (
	"sync"
	"time"
)

// Clock is the minimal scheduling surface the registry needs; it is
// structurally satisfied by netsim.Clock without this package importing
// netsim.
type Clock interface {
	Now() time.Duration
	RunAfter(d time.Duration, fn func())
}

// Point is one sample of one series, in model time.
type Point struct {
	// TMs is the sample instant in model milliseconds.
	TMs float64 `json:"t_ms"`
	// V is the gauge value at that instant.
	V float64 `json:"v"`
}

// TimeSeries is a named sampled series, JSON-ready for experiment
// reports.
type TimeSeries struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Registry holds named gauges and the samples taken from them. Gauge
// functions are read in registration order at every sample tick, inline
// in clock-callback context — they must not block (reading an atomic, a
// queue depth, a cumulative meter counter).
type Registry struct {
	mu     sync.Mutex
	names  []string
	fns    []func() float64
	points [][]Point
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a named gauge. Safe on a nil receiver (no-op).
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.names = append(r.names, name)
	r.fns = append(r.fns, fn)
	r.points = append(r.points, nil)
	r.mu.Unlock()
}

// Sample reads every gauge once, stamping the samples with the given
// model instant.
func (r *Registry) Sample(now time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fns := r.fns
	r.mu.Unlock()
	// Gauge functions run outside the lock (they may consult structures
	// that themselves trace). Registration is wiring-time-only, so the
	// snapshot above is stable.
	tms := float64(now) / float64(time.Millisecond)
	for i, fn := range fns {
		v := fn()
		r.mu.Lock()
		r.points[i] = append(r.points[i], Point{TMs: tms, V: v})
		r.mu.Unlock()
	}
}

// Start arms a self-rescheduling probe: every `every` of model time it
// samples all gauges, until the next tick would land past `until`. The
// horizon is mandatory — an unbounded RunAfter chain would keep
// VirtualClock.Drain from ever terminating.
func (r *Registry) Start(clock Clock, every, until time.Duration) {
	if r == nil || clock == nil || every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		now := clock.Now()
		if now > until {
			return
		}
		r.Sample(now)
		if now+every <= until {
			clock.RunAfter(every, tick)
		}
	}
	clock.RunAfter(every, tick)
}

// Series snapshots every series in registration order.
func (r *Registry) Series() []TimeSeries {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TimeSeries, len(r.names))
	for i, name := range r.names {
		out[i] = TimeSeries{Name: name, Points: append([]Point(nil), r.points[i]...)}
	}
	return out
}
