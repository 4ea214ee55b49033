package netsim

import "time"

// Clock is the time substrate of the simulation: the deterministic
// discrete-event scheduler VirtualClock, under the name every layer above
// takes it by. All deadline math is done in model time, a monotonically
// increasing time.Duration measured from the clock's creation; nothing ever
// sleeps on the host.
//
// Code running under a clock is organized into actors and callbacks. The
// goroutine that created the clock is the root actor; further actors must
// be spawned with Go (never the bare go statement) and may only block
// through the clock: Sleep/SleepUntil, Drain, or the Event/Queue/Group
// primitives. An actor that blocks on anything else (a bare channel, a
// sync.WaitGroup) freezes the whole simulation, since the execution token
// is never handed on.
//
// The actor-vs-callback rule: work that blocks mid-flight (multi-hop
// protocol logic, server-slot queueing) needs an actor — Go gives it a
// stack to park — unless it is a fixed chain of waits, like a
// request/response leg or a whole storage operation: that runs as a record
// whose one step is a continuation (Run, After, At, Event.Then, Queue.Then,
// Group.Then; see VirtualClock, Hop and RoundTrip).
// Fire-and-forget work that just runs at a deadline
// (asynchronous replication applying a mutation, a commit delivery, a
// block-mining tick) should use RunAt/RunAfter instead: a callback costs no
// goroutine spawn and no channel rendezvous, which is what makes
// million-actor runs affordable. A deadline that is usually called off
// (an operation timeout) is a Timer, which StopTimer takes back. Callbacks MUST NOT block — a blocking call
// from a callback panics (fail fast); a callback that needs to block spawns
// an actor with Go.
type Clock = *VirtualClock

// Stopwatch measures elapsed model time.
type Stopwatch struct {
	clock Clock
	start time.Duration
}

// ElapsedModel returns the model time elapsed since the stopwatch started.
func (s Stopwatch) ElapsedModel() time.Duration {
	return s.clock.Now() - s.start
}
