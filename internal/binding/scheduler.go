package binding

import (
	"time"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// SchedulerFor adapts a netsim clock to the core Scheduler interface.
// Bindings use it to implement Binding.Scheduler in one line.
func SchedulerFor(c netsim.Clock) core.Scheduler { return clockScheduler{c} }

type clockScheduler struct{ c netsim.Clock }

func (s clockScheduler) Go(fn func())         { s.c.Go(fn) }
func (s clockScheduler) NewEvent() core.Event { return s.c.NewEvent() }
func (s clockScheduler) Now() time.Duration   { return s.c.Now() }

// After arms the clock's cancellable timer (VirtualClock.ArmAfter): no
// actor spawn, no channel rendezvous, no closure, deterministic interleave
// with traffic. The alarm must not block (Controller methods never do).
func (s clockScheduler) After(d time.Duration, t *core.Timer, a core.Alarm) { s.c.ArmAfter(t, d, a) }

// Stop takes t out of the clock's timer heap.
func (s clockScheduler) Stop(t *core.Timer) bool { return s.c.StopTimer(t) }
