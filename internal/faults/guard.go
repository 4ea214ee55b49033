package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"correctables/internal/netsim"
)

// ErrUnreachable fails a client invocation that a fault made impossible to
// complete in time: a severed quorum, a crashed coordinator, a leader cut
// off from its majority. It is surfaced through the binding error path, so
// Correctable consumers observe OnError instead of a hang. Check with
// errors.Is.
var ErrUnreachable = errors.New("faults: service unreachable")

// timeoutSentinel marks the deadline firing in the rendezvous queue.
type timeoutSentinel struct{}

// Deadline bounds a blocking storage operation to timeout of model time:
// op runs in its own actor while the caller waits for completion or the
// deadline, whichever is first. On timeout Deadline returns an error
// wrapping ErrUnreachable and op is abandoned, not cancelled: what it still
// has in flight runs to its end — every synchronous hop retransmits until
// the fault heals, or Quiesce clears it — and it uses the live() predicate
// it is handed to suppress view deliveries the caller no longer wants. An
// op must therefore never wait for something only a fire-and-forget message
// can bring (netsim.AwaitFlush): a fault destroys those for good, and the
// abandoned actor would stay parked past Quiesce and Drain.
//
// A timeout of 0 or less disables the guard: op runs inline on the caller.
func Deadline(clock netsim.Clock, timeout time.Duration, op func(live func() bool) error) error {
	if timeout <= 0 {
		return op(func() bool { return true })
	}
	var expired atomic.Bool
	live := func() bool { return !expired.Load() }
	done := clock.NewQueue()
	clock.Go(func() { done.Put(op(live)) })
	clock.RunAfter(timeout, func() { done.Put(timeoutSentinel{}) })
	switch v := done.Get().(type) {
	case timeoutSentinel:
		expired.Store(true)
		return fmt.Errorf("%w: no response within %v", ErrUnreachable, timeout)
	case error:
		return v
	default: // nil error
		return nil
	}
}
