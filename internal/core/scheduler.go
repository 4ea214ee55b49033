package core

import (
	"time"

	"correctables/internal/netsim"
)

// Event is a one-shot broadcast: Wait blocks until Fire has been called.
// Fire is idempotent.
type Event interface {
	Fire()
	Wait()
}

// Scheduler is the clock of the storage stack a Correctable's views come
// from: how the Correctable spawns helper actors (Speculate), how its
// consumers block (Final), how the client library arms and cancels an
// operation's deadline, and what "now" means for the views it delivers.
// Every binding supplies its substrate's clock (binding.SchedulerFor adapts
// a netsim clock), so waiting on a Correctable parks a simulation actor
// rather than freezing the discrete-event scheduler: under netsim's
// VirtualClock this is what lets a whole experiment run at CPU speed,
// deterministically.
type Scheduler interface {
	// Go runs fn on a new actor.
	Go(fn func())
	// NewEvent returns a one-shot broadcast usable by this scheduler's
	// actors.
	NewEvent() Event
	// After arms t to ring a once d of model time has elapsed, stopping
	// it first if it is pending. Its owner keeps t — in the record the
	// deadline belongs to — so arming allocates nothing.
	After(d time.Duration, t *Timer, a Alarm)
	// Stop cancels t: a stopped timer never rings and holds no reference
	// to its alarm, so an operation that ends early leaves nothing behind.
	// Stopping a timer that rang or was stopped already does nothing.
	// Reports whether t was pending.
	Stop(t *Timer) bool
	// Now returns the current model time. View.At timestamps come from
	// here, which is what makes recorded histories replay byte-identically.
	Now() time.Duration
}

// Timer is a cancellable deadline armed by Scheduler.After: under
// binding.SchedulerFor, the netsim clock's own timer. Its zero value is
// stopped.
type Timer = netsim.Timer

// Alarm is what a Timer rings when its deadline passes.
type Alarm = netsim.Alarm
