package core

import "time"

// Event is a one-shot broadcast: Wait blocks until Fire has been called.
// Fire is idempotent.
type Event interface {
	Fire()
	Wait()
}

// Scheduler is the clock of the storage stack a Correctable's views come
// from: how the Correctable spawns helper actors (Speculate), how its
// consumers block (Final), how the client library arms an
// operation timeout, and what "now" means for the views it delivers. Every
// binding supplies its substrate's clock (binding.SchedulerFor adapts a
// netsim clock), so waiting on a Correctable parks a simulation actor
// rather than freezing the discrete-event scheduler: under netsim's
// VirtualClock this is what lets a whole experiment run at CPU speed,
// deterministically.
type Scheduler interface {
	// Go runs fn on a new actor.
	Go(fn func())
	// NewEvent returns a one-shot broadcast usable by this scheduler's
	// actors.
	NewEvent() Event
	// After runs fn once d of model time has elapsed. There is no
	// cancellation: late fns must be no-ops (Controller methods after
	// closure already are).
	After(d time.Duration, fn func())
	// Now returns the current model time. View.At timestamps come from
	// here, which is what makes recorded histories replay byte-identically.
	Now() time.Duration
}
