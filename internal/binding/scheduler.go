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

// After rides the clock's callback-timer heap: no actor spawn, no
// channel rendezvous, deterministic interleave with traffic. fn must not
// block (Controller methods never do).
func (s clockScheduler) After(d time.Duration, fn func()) { s.c.RunAfter(d, fn) }
