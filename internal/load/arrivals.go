package load

import (
	randv2 "math/rand/v2"
	"time"

	"correctables/internal/netsim"
)

// ArrivalProcess generates the interarrival sequence of an open-loop
// workload in model time. Implementations are deterministic per seed and
// are consumed from clock callbacks, so they must not block.
type ArrivalProcess interface {
	// Next returns the delay until the following arrival.
	Next() time.Duration
}

// Poisson is an open-loop Poisson process: independent exponential
// interarrivals at Rate arrivals per second of model time — the classic
// memoryless offered load.
type Poisson struct {
	rate float64
	rng  *randv2.Rand
}

// NewPoisson returns a Poisson process at rate arrivals/second, seeded
// deterministically.
func NewPoisson(rate float64, seed int64) *Poisson {
	if rate <= 0 {
		panic("load: Poisson rate must be positive")
	}
	return &Poisson{rate: rate, rng: randv2.New(randv2.NewPCG(uint64(seed), 0xda3e39cb94b95bdb))}
}

// Next implements ArrivalProcess.
func (p *Poisson) Next() time.Duration {
	return time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second))
}

// OnOff is a bursty open-loop process: Poisson arrivals at Rate during On
// windows, silence during Off windows, repeating. The first On window
// starts at the process origin. It models the flash crowd / upstream-batch
// traffic that triggers metastable failures: the interesting question is
// not the burst itself but whether the system recovers after the Off edge.
type OnOff struct {
	inner  *Poisson
	on     time.Duration
	period time.Duration
	active time.Duration // cumulative active (On-domain) time consumed
	last   time.Duration // previous arrival's wall offset from the origin
}

// NewOnOff returns an on/off burst process: rate arrivals/second during
// each on window, separated by off windows of silence.
func NewOnOff(rate float64, on, off time.Duration, seed int64) *OnOff {
	if on <= 0 {
		panic("load: OnOff on-window must be positive")
	}
	if off < 0 {
		off = 0
	}
	return &OnOff{inner: NewPoisson(rate, seed), on: on, period: on + off}
}

// Next implements ArrivalProcess. Arrival instants are drawn in the
// "active time" domain (where the process is always on) and mapped onto
// the wall by inserting the off windows — exact, with no edge drift.
func (p *OnOff) Next() time.Duration {
	p.active += p.inner.Next()
	cycles := p.active / p.on
	wall := cycles*p.period + (p.active - cycles*p.on)
	d := wall - p.last
	p.last = wall
	return d
}

// Start schedules arrivals from proc on the clock until the model instant
// horizon, invoking fire(i) for the i-th arrival. fire runs in callback
// context and must not block; blocking work belongs in an actor it spawns
// (clock.Go). Arrivals strictly at or past horizon are not fired, and the
// chain of callbacks ends with them — a drained VirtualClock holds no
// generator residue. The number of arrivals is not knowable up front (open
// loop); the caller counts in fire.
func Start(clock netsim.Clock, proc ArrivalProcess, horizon time.Duration, fire func(i int)) {
	g := &generator{clock: clock, proc: proc, horizon: horizon, fire: fire}
	g.step = g.arrive
	g.schedule(clock.Now() + proc.Next())
}

// generator is one arrival chain as a record: at most one arrival is
// pending at a time, so the chain needs one record and one step, bound
// once, however many arrivals it fires.
type generator struct {
	clock   netsim.Clock
	proc    ArrivalProcess
	horizon time.Duration
	fire    func(i int)
	at      time.Duration // the pending arrival's instant
	i       int           // the pending arrival's index
	step    func()        // g.arrive
}

// schedule makes at the next arrival, unless it falls at or past the
// horizon.
func (g *generator) schedule(at time.Duration) {
	if at >= g.horizon {
		return
	}
	g.at = at
	g.clock.RunAt(at, g.step)
}

// arrive fires the pending arrival and schedules the one after it.
func (g *generator) arrive() {
	g.fire(g.i)
	g.i++
	g.schedule(g.at + g.proc.Next())
}
