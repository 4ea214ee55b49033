package load

import (
	"fmt"
	"sync"
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
)

// Config tunes a Controller.
type Config struct {
	// Clock drives the sampler and all bucket refills (required).
	Clock netsim.Clock

	// PerClientRate / PerClientBurst configure the static per-client token
	// buckets (tokens/second and capacity), keyed by the client's
	// binding.WithLabel identity. Rate <= 0 disables per-client limiting.
	PerClientRate  float64
	PerClientBurst float64

	// Sample reads the backpressure signal: the coordinator's current
	// queueing delay (netsim.Server.QueueDelay of the contact replica).
	// nil disables adaptive backpressure and degraded mode — the
	// controller is then a plain per-client rate limiter.
	Sample func() time.Duration
	// SampleEvery is the model-time sampling period (default 50ms).
	SampleEvery time.Duration
	// Threshold is the queue delay above which a sample counts as
	// overload (default 50ms). AIMD reacts per sample; degraded mode
	// reacts to runs of samples (hysteresis below).
	Threshold time.Duration

	// The AIMD admit-rate bucket: every over-threshold sample multiplies
	// the global admit rate by DecreaseFactor (default 0.5), every clean
	// sample adds IncreasePerSample (default MaxRate/16), clamped to
	// [MinRate, MaxRate]. MaxRate is required when Sample is set; size it
	// at or above the coordinator's capacity so the bucket is invisible
	// when healthy.
	MinRate, MaxRate  float64
	IncreasePerSample float64
	DecreaseFactor    float64

	// DegradeToWeak enables degrade-to-preliminary shedding: after
	// EnterAfter consecutive over-threshold samples (default 2) admitted
	// reads are served at the weakest level only, until ExitAfter
	// consecutive clean samples (default 4). The asymmetric run lengths
	// are the hysteresis that keeps the mode from flapping when the queue
	// delay hovers at the threshold.
	DegradeToWeak bool
	EnterAfter    int
	ExitAfter     int

	// Meter, when set, accounts rejections and sheds on the client link
	// class (netsim.Meter AccountRejected/AccountShed).
	Meter *netsim.Meter
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 50 * time.Millisecond
	}
	if c.Threshold <= 0 {
		c.Threshold = 50 * time.Millisecond
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.5
	}
	if c.IncreasePerSample <= 0 {
		c.IncreasePerSample = c.MaxRate / 16
	}
	if c.MinRate <= 0 {
		c.MinRate = c.MaxRate / 64
	}
	if c.EnterAfter <= 0 {
		c.EnterAfter = 2
	}
	if c.ExitAfter <= 0 {
		c.ExitAfter = 4
	}
	return c
}

// Controller is the coordinator-side admission gate: per-client token
// buckets in front of an adaptive (AIMD) global admit-rate bucket, with
// optional degrade-to-preliminary shedding under sustained backpressure.
// It implements binding.AdmissionGate; attach it to clients with
// binding.WithAdmission and start the sampler with Start.
//
// Decision order per attempt: the client's own bucket first (an abusive
// client is rejected regardless of global health), then the global
// adaptive bucket (backpressure rejects are the zero-cost shed that lets
// the backlog drain), and only then — for admitted non-mutating work while
// degraded mode is engaged — the Degrade verdict. Degraded reads still
// spend a global token: a weak read is cheap, not free, and admitting
// unbounded weak reads into a saturated coordinator would re-create the
// queue the mode exists to drain.
//
// All state transitions happen either under the mutex (Admit) or in the
// sampler callback, both in model time, so a virtual-clock run replays
// byte-identically per seed.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	global   *TokenBucket // nil when adaptive backpressure is off
	clients  map[string]*TokenBucket
	over     int // consecutive over-threshold samples
	under    int // consecutive clean samples
	degraded bool
	stopped  bool
	started  bool
}

// NewController builds a controller; call Start to run the backpressure
// sampler.
func NewController(cfg Config) *Controller {
	if cfg.Clock == nil {
		panic("load: Config.Clock is required")
	}
	if cfg.Sample != nil && cfg.MaxRate <= 0 {
		panic("load: Config.MaxRate is required with adaptive backpressure")
	}
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, clients: map[string]*TokenBucket{}}
	if cfg.Sample != nil {
		c.global = NewTokenBucket(cfg.MaxRate, cfg.MaxRate*cfg.SampleEvery.Seconds()*4)
	}
	return c
}

// Start arms the self-rescheduling sampler callback. Idempotent; a
// stopped controller does not restart.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started || c.stopped || c.cfg.Sample == nil {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	var tick func()
	tick = func() {
		if !c.sample() {
			return
		}
		c.cfg.Clock.RunAfter(c.cfg.SampleEvery, tick)
	}
	c.cfg.Clock.RunAfter(c.cfg.SampleEvery, tick)
}

// Stop halts the sampler at its next tick (the pending callback sees the
// flag and does not reschedule, so a VirtualClock drains cleanly).
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Degraded reports whether degrade-to-preliminary shedding is engaged.
func (c *Controller) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// AdmitRate returns the current global admit rate (ops/second), or 0 when
// adaptive backpressure is off.
func (c *Controller) AdmitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.global == nil {
		return 0
	}
	return c.global.Rate()
}

// sample takes one backpressure sample and applies AIMD + hysteresis;
// reports whether the sampler should keep running.
func (c *Controller) sample() bool {
	d := c.cfg.Sample()
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return false
	}
	rate := c.global.Rate()
	if d > c.cfg.Threshold {
		c.over++
		c.under = 0
		rate *= c.cfg.DecreaseFactor
		if rate < c.cfg.MinRate {
			rate = c.cfg.MinRate
		}
		if c.cfg.DegradeToWeak && c.over >= c.cfg.EnterAfter {
			c.degraded = true
		}
	} else {
		c.under++
		c.over = 0
		rate += c.cfg.IncreasePerSample
		if rate > c.cfg.MaxRate {
			rate = c.cfg.MaxRate
		}
		if c.degraded && c.under >= c.cfg.ExitAfter {
			c.degraded = false
		}
	}
	c.global.SetRate(rate, now)
	return true
}

// Admit implements binding.AdmissionGate.
func (c *Controller) Admit(client string, op binding.Operation) (binding.AdmissionDecision, error) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.PerClientRate > 0 {
		tb := c.clients[client]
		if tb == nil {
			tb = NewTokenBucket(c.cfg.PerClientRate, c.cfg.PerClientBurst)
			c.clients[client] = tb
		}
		if !tb.Take(now) {
			c.cfg.Meter.AccountRejected(netsim.LinkClient)
			return binding.AdmissionReject,
				fmt.Errorf("%w: client %q over its rate limit (%.0f ops/s)", ErrRejected, client, c.cfg.PerClientRate)
		}
	}
	if c.global != nil && !c.global.Take(now) {
		c.cfg.Meter.AccountRejected(netsim.LinkClient)
		return binding.AdmissionReject,
			fmt.Errorf("%w: coordinator backpressure (admit rate %.0f ops/s)", ErrRejected, c.global.Rate())
	}
	if c.degraded && !op.OpMutates() {
		c.cfg.Meter.AccountShed(netsim.LinkClient)
		return binding.AdmissionDegrade, nil
	}
	return binding.AdmissionAdmit, nil
}
