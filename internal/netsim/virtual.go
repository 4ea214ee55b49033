package netsim

import (
	"fmt"
	"sync"
	"time"
)

// VirtualClock is a deterministic discrete-event scheduler. Actors run one
// at a time under a cooperative token: exactly one actor executes at any
// moment, and every blocking operation (Sleep, Event.Wait, Queue.Get,
// Group.Wait) hands the token to the next runnable actor. When no actor is
// runnable, model time jumps straight to the earliest pending deadline —
// no host sleeping, ever. Because the token handoff order is a pure
// function of the program (spawn order, deadlines, FIFO wakeups), two runs
// of the same seeded workload execute the exact same event sequence and
// produce byte-identical metrics.
//
// Besides actors, the clock schedules callback timers (RunAt/RunAfter):
// a callback is executed inline by whichever goroutine is dispatching when
// its deadline is reached — no goroutine spawn, no channel rendezvous.
// Callbacks interleave with actor wakeups in the same (deadline, spawn
// sequence) order, so converting fire-and-forget actors to callbacks does
// not perturb determinism. The price is a discipline: a callback must not
// block. A call to Sleep, Event.Wait, Queue.Get, Group.Wait or Drain from
// inside a callback panics if it would actually park (fail fast, like the
// deadlock check); calls that are satisfied immediately — a Get on a
// non-empty queue, a Wait on a fired event, a Sleep to the past — return
// without parking and are not detected, so do not lean on
// the panic to find violations: keep callbacks free of these calls
// entirely. Non-blocking operations — Now, Go, RunAt/RunAfter,
// Event.Fire, Queue.Put, Group.Add/Done — are all fine. Blocking work
// still needs an actor: spawn one with Go from inside the callback if
// necessary.
//
// A callback timer cannot be taken back; a Timer can. ArmAfter arms one on
// storage its owner keeps, to ring an Alarm — the owner's record, so no
// closure either — on the deadline and arming sequence RunAfter would take,
// and StopTimer takes it out of the heap at once. That is the shape of a
// deadline that is mostly cancelled, like an operation timeout: an
// operation that closes early leaves nothing behind, where a RunAfter
// would stay in the heap as a no-op until its instant.
//
// Work that waits more than once need not be an actor either. Each way an
// actor takes its turn has a continuation twin that takes the same turn
// without one: Run takes over the ready-queue slot of Go, After and At the
// timer of Sleep and SleepUntil (and run the continuation on the spot exactly
// where those return without parking), Event.Then the waiter slot of
// Event.Wait (and Queue.Then and Group.Then those of Queue.Get and
// Group.Wait), counted as parked like the actor it stands for. A continuation
// is a callback — dispatch runs it inline, and it must not block — so a
// multi-step exchange written as a chain of them (netsim.RoundTrip) costs no
// goroutine, no spawn and no token handoff. It moves no event: an execution
// is its sequence of steps, whichever goroutine takes each, and a chain that
// occupies the slots and arms the timers its actor would have leaves the
// order dispatch pops them in unchanged by construction.
//
// Discipline (see the Clock comment): spawn actors with Go and block only
// through the clock. An actor that blocks on a bare channel freezes the
// whole simulation, since the token is never handed on.
//
// Internally the scheduler is built so that one simulated message costs the
// host as little as possible: the ready set is a head-indexed compacting
// deque (no reslice churn, memory bounded by the live depth); every park
// goes through a freelist of rendezvous channels (token handoff is a
// buffered send, not a channel close); timers live in a concrete 4-ary
// heap of value entries (no container/heap boxing) — a sleeping actor
// parks on a Timer of its own — and actors run on
// pooled worker goroutines — a worker whose actor returned parks on its own
// rendezvous channel in a bounded idle pool, and the next Go hands it the
// new body instead of starting a goroutine (no newproc, no fresh stack to
// grow, no closure). Which goroutine runs an actor is invisible to the
// model: Go stamps the same spawn sequence and takes the same ready-queue
// slot either way. Idle workers are retired when a Drain reaches
// quiescence, so a drained clock leaves no goroutine behind.
//
// The goroutine that calls NewVirtualClock is the root actor and initially
// holds the token.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Duration
	seq     uint64
	timers  timerHeap
	ready   fifo[*vactor] // runnable actors, FIFO
	blocked int           // actors parked on events/queues/groups
	idler   *vactor       // Drain caller, woken only at quiescence
	// inCallback is true while the dispatching goroutine runs a callback
	// timer; blocking operations fail fast when they see it (only the
	// callback itself can observe the flag — every other actor is parked
	// while the token holder dispatches).
	inCallback bool
	// freelist recycles vactors (and their token channels) across parks.
	freelist []*vactor
	// idle holds the workers whose actor returned, parked on their own
	// channel until Go hands them the next body (at most maxIdleWorkers).
	idle []*vactor
	// freeEvents recycles events handed back through Event.Release.
	freeEvents []*Event
	// spawned counts Go calls, i.e. actors started. Benchmarks use it to
	// prove the callback path costs zero actors per message.
	spawned uint64
}

// maxIdleWorkers bounds the idle worker pool; a worker that finishes its
// actor with the pool full exits, as every actor goroutine used to. The
// bound is what a burst may leave parked until the next Drain — the 10^5
// actors of a wide ycsb.Run all end at the horizon — and 256 is where the
// measured reuse levels off. Re-measured, as counts, now that request and
// response legs and every cassandra and zk protocol operation are records
// and no actors, over whole runs of the benchmark's workloads (seed 101;
// set-up, warm-up and five repetitions, each world on a clock of its own,
// whose first actors start their goroutines whatever the bound). The
// deepest the pool ever wants to be is 102 (ads_spec_closed), 12
// (sessions_rw_checked), 20 (worlds_faults_parallel), 398
// (sharded_open_ramp: one actor per arrival, each blocking on its
// operation's final view, which end together as the backlog drains) and
// 192 (zk_queue_failover: its client actors, which end together at each
// phase's horizon). Of the Go calls — 659,461, 120, 255,700, 734,960 and
// 1,920 — these many start a goroutine: 1,071, 60, 67,050, 4,570 and 1,600
// at a bound of 64, against 593, 60, 67,050, 1,990 and 960 at 256 and with
// no bound. sessions_rw_checked and zk_queue_failover start half their
// actors fresh at any bound (each world's first), and the 900 short worlds
// start theirs fresh too; the open ramp's arrivals are the pool's heaviest
// user. Peak RSS did not tell 64, 256 and no bound apart on any of them
// when the bound was chosen; that was not measured again.
const maxIdleWorkers = 256

// vactor is one parked actor: a rendezvous channel for the token handoff,
// a spawn sequence for deterministic tie-breaks, and the handed-off value
// (queues) or actor body (workers). The channel is buffered (capacity 1)
// and reused across parks: waking an actor is a single non-blocking send.
// A vactor with then set stands in the same slots for a continuation, which
// has no goroutine to wake: dispatch runs it inline when its turn comes.
type vactor struct {
	seq   uint64
	ch    chan struct{}
	val   any
	fn    func()    // the body a worker runs when woken; nil retires it
	then  func()    // a continuation's step (Run, Event.Then, Group.Then), in place of a wake
	take  func(any) // a Queue.Then continuation, handed val in place of a wake
	sleep Timer     // the timer a Sleep parks on, which wakes this actor
}

// NewVirtualClock returns a virtual clock at model time zero. The calling
// goroutine becomes the root actor and holds the execution token.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{}
}

// newActorLocked takes a vactor off the freelist (or allocates one) and
// stamps it with the next spawn sequence. Callers hold c.mu.
func (c *VirtualClock) newActorLocked() *vactor {
	p := c.freeActorLocked()
	p.seq = c.seq
	c.seq++
	return p
}

// freeActorLocked takes a vactor off the freelist (or allocates one)
// without stamping it. Callers hold c.mu.
func (c *VirtualClock) freeActorLocked() *vactor {
	if p := popLast(&c.freelist); p != nil {
		return p
	}
	return &vactor{ch: make(chan struct{}, 1)}
}

// popLast takes the most recently freed element off a freelist, nil when
// it is empty.
func popLast[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// FreeList recycles the per-operation records of the stores built on the
// clock, the way the clock recycles its own actors and events: Take returns
// the most recently freed record, or nil when there is none and the caller
// builds one (binding its steps, once); Put hands back a record its last
// user has cleared of references. The zero value is an empty list; it is
// safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *FreeList[T]) Take() *T {
	l.mu.Lock()
	x := popLast(&l.free)
	l.mu.Unlock()
	return x
}

func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// recycle returns a vactor whose wait has completed to the freelist. The
// caller must have received the token through p.ch already (so the channel
// is empty again) and be done with p.val and p.fn.
func (c *VirtualClock) recycle(p *vactor) {
	c.mu.Lock()
	c.recycleLocked(p)
	c.mu.Unlock()
}

func (c *VirtualClock) recycleLocked(p *vactor) {
	p.val, p.fn, p.then, p.take = nil, nil, nil, nil
	c.freelist = append(c.freelist, p)
}

// wake hands the execution token to a parked actor. The channel holds at
// most the one token in the system, so the buffered send never blocks and
// is safe under c.mu.
func (p *vactor) wake() { p.ch <- struct{}{} }

// checkCanBlockLocked fails fast when a callback timer attempts a blocking
// operation. Callers hold c.mu; on failure the lock is released before
// panicking so the message can be recovered by tests.
func (c *VirtualClock) checkCanBlockLocked(op string) {
	if c.inCallback {
		c.mu.Unlock()
		panic(fmt.Sprintf(
			"netsim: callback timer attempted to block in %s; callbacks must not block — spawn blocking work with Go", op))
	}
}

// dispatchLocked hands the token to the next runnable work item: ready
// actors first (FIFO), then the earliest timer (advancing model time),
// then — only at full quiescence — the Drain idler. Callback timers and
// continuations are executed inline on the dispatching goroutine (dropping
// the lock for the duration of the callback) and dispatch continues
// afterwards. If parked
// actors remain with nothing left that could ever wake them, that is a
// deadlock and the simulation fails fast instead of hanging.
//
// Enters and returns with c.mu held, but may release it transiently while
// running callbacks.
func (c *VirtualClock) dispatchLocked() {
	for {
		if c.ready.len() > 0 {
			p := c.ready.pop()
			if p.then == nil && p.take == nil {
				p.wake()
				return
			}
			// A continuation's turn: it ran no goroutine to hand the token
			// to, so its step runs here and its slot goes back.
			fn, take, v := p.then, p.take, p.val
			c.recycleLocked(p)
			c.callLocked(fn, take, v)
			continue
		}
		if c.timers.len() > 0 {
			e := c.timers.pop()
			if e.at > c.now {
				c.now = e.at
			}
			if e.fn != nil {
				c.callLocked(e.fn, nil, nil)
				continue
			}
			if p := e.t.p; p != nil {
				e.t.p = nil
				p.wake()
				return
			}
			a := e.t.a
			e.t.a = nil
			c.callLocked(a.Ring, nil, nil)
			continue
		}
		if c.idler != nil {
			c.retireIdleLocked()
			p := c.idler
			c.idler = nil
			p.wake()
			return
		}
		if c.blocked > 0 {
			// Parked actors can now only be woken by other actors — and none
			// remain, whether the yielder parked itself or exited. Any
			// pending callback timers have already run above without
			// unblocking anyone. Fail fast instead of hanging silently, and
			// leave the clock unlocked: a test that recovers the panic may
			// still Drain it (from a cleanup, say) and must not hang.
			c.mu.Unlock()
			panic(fmt.Sprintf(
				"netsim: virtual clock deadlock: %d actor(s) blocked with no runnable actors and no pending timers",
				c.blocked))
		}
		return
	}
}

// callLocked runs a callback — a timer's or a continuation's — inline,
// without the lock, on the dispatching goroutine: zero spawns, zero
// rendezvous. A Queue.Then continuation comes as take, with its item v, in
// place of fn. Dispatch continues afterwards (the callback may have readied
// actors or armed further timers). Enters and returns with c.mu held.
func (c *VirtualClock) callLocked(fn func(), take func(any), v any) {
	c.inCallback = true
	c.mu.Unlock()
	if take != nil {
		take(v)
	} else {
		fn()
	}
	c.mu.Lock()
	c.inCallback = false
}

// Now returns the current model time.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	return now
}

// Sleep parks the actor for d of model time.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.sleepUntilLocked(c.now + d)
}

// SleepUntil parks the actor until model instant t.
func (c *VirtualClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	c.sleepUntilLocked(t)
}

// sleepUntilLocked parks the caller on the timer heap and hands the token
// on. Enters with c.mu held, returns with it released.
func (c *VirtualClock) sleepUntilLocked(t time.Duration) {
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	c.checkCanBlockLocked("Sleep")
	p := c.newActorLocked()
	p.sleep.p = p
	c.timers.push(timerEntry{at: t, seq: p.seq, t: &p.sleep})
	c.dispatchLocked()
	c.mu.Unlock()
	<-p.ch
	c.recycle(p)
}

// RunAt schedules fn as a callback timer at model instant t
// (or the current instant, if t is in the past). The callback executes
// inline on whichever goroutine dispatches that instant — no goroutine is
// spawned — deterministically interleaved with actor wakeups by
// (deadline, arming sequence). fn must not block; see the type comment.
func (c *VirtualClock) RunAt(t time.Duration, fn func()) {
	c.mu.Lock()
	c.armLocked(max(t, c.now), fn)
	c.mu.Unlock()
}

// RunAfter is RunAt(Now()+d, fn).
func (c *VirtualClock) RunAfter(d time.Duration, fn func()) {
	c.mu.Lock()
	c.armLocked(c.now+max(d, 0), fn)
	c.mu.Unlock()
}

// armLocked pushes a callback timer under the next arming sequence.
func (c *VirtualClock) armLocked(t time.Duration, fn func()) {
	c.timers.push(timerEntry{at: t, seq: c.seq, fn: fn})
	c.seq++
}

// Alarm is what a Timer rings when its deadline passes: in practice the
// record the deadline belongs to, so that arming one costs no closure.
type Alarm interface{ Ring() }

// Timer is the clock's cancellable callback timer. Its owner keeps it —
// typically a field of the record whose deadline it is — and arms it with
// ArmAfter, so arming allocates nothing. A stopped timer is out of the heap
// at once: it never rings, never advances the clock and holds no reference
// to its alarm. The zero Timer is stopped. A Timer belongs to the clock that
// armed it until it rings or is stopped.
type Timer struct {
	a Alarm
	p *vactor // in place of a, the actor a Sleep parked on this timer
	i int     // heap position + 1 while pending, 0 once stopped or rung
}

// ArmAfter arms t to ring a once d of model time has passed: RunAfter's
// callback, on the deadline and arming sequence RunAfter(d, a.Ring) would
// take. A pending t is stopped first.
func (c *VirtualClock) ArmAfter(t *Timer, d time.Duration, a Alarm) {
	c.mu.Lock()
	if t.i != 0 {
		c.timers.remove(t.i - 1)
	}
	t.a = a
	c.timers.push(timerEntry{at: c.now + max(d, 0), seq: c.seq, t: t})
	c.seq++
	c.mu.Unlock()
}

// StopTimer takes t out of the heap; it reports whether t was pending.
// Stopping a timer that has rung or was stopped already does nothing.
func (c *VirtualClock) StopTimer(t *Timer) bool {
	c.mu.Lock()
	pending := t.i != 0
	if pending {
		c.timers.remove(t.i - 1)
	}
	t.a = nil
	c.mu.Unlock()
	return pending
}

// After is the continuation twin of Sleep: fn runs once d of model time has
// passed, on the timer Sleep(d) would have armed — and, where Sleep returns
// without parking (d <= 0), on the caller's stack before After returns,
// arming nothing. That is the difference from RunAfter, which always takes
// a timer and so yields the instant to everything already runnable.
func (c *VirtualClock) After(d time.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	c.mu.Lock()
	c.armLocked(c.now+d, fn)
	c.mu.Unlock()
}

// At is the continuation twin of SleepUntil: After for a model instant.
func (c *VirtualClock) At(t time.Duration, fn func()) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		fn()
		return
	}
	c.armLocked(t, fn)
	c.mu.Unlock()
}

// Run is the continuation twin of Go: fn takes the ready-queue slot a new
// actor would take, under the same spawn sequence, and runs inline on the
// dispatching goroutine when the token reaches that slot. No actor is
// started, so it does not count in Spawned.
func (c *VirtualClock) Run(fn func()) {
	c.mu.Lock()
	p := c.newActorLocked()
	p.then = fn
	c.ready.push(p)
	c.mu.Unlock()
}

// Go spawns fn as a new actor, enqueued runnable behind the
// current ready set. It starts executing when the token reaches it. The
// actor runs on an idle pooled worker when there is one and on a new
// goroutine otherwise; the spawn sequence and ready-queue position are the
// same in both cases.
func (c *VirtualClock) Go(fn func()) {
	c.mu.Lock()
	c.spawned++
	w := popLast(&c.idle)
	pooled := w != nil
	if pooled {
		w.seq = c.seq
		c.seq++
	} else {
		w = c.newActorLocked()
	}
	w.fn = fn
	c.ready.push(w)
	c.mu.Unlock()
	if !pooled {
		go c.work(w)
	}
}

// work is a worker goroutine: it runs the actor body it is woken with,
// then hands the token on and parks in the idle pool for the next Go — or
// exits, when the pool is full or a Drain retired it. A worker holds a
// vactor only while it waits: the one it was woken through goes back to the
// freelist for the body's own parks, and going idle takes whichever is free
// then, so the clock needs no more of them than it has waits at once.
func (c *VirtualClock) work(w *vactor) {
	for {
		<-w.ch
		fn := w.fn
		c.recycle(w)
		if fn == nil {
			return
		}
		fn()
		c.mu.Lock()
		pooled := len(c.idle) < maxIdleWorkers
		if pooled {
			w = c.freeActorLocked()
			c.idle = append(c.idle, w)
		}
		// Dispatch may run a callback whose Go picks this very worker; the
		// wake then waits in the channel buffer for the receive above.
		c.dispatchLocked()
		c.mu.Unlock()
		if !pooled {
			return
		}
	}
}

// retireIdleLocked wakes every idle worker without a body, which makes it
// exit. Callers hold c.mu.
func (c *VirtualClock) retireIdleLocked() {
	for _, w := range c.idle {
		w.wake()
	}
	c.idle = nil
}

// Spawned returns the number of actors the clock has started via Go.
// Benchmarks and the spawn gates use the delta across a workload to verify
// that the callback-timer path and the continuations spawn none.
func (c *VirtualClock) Spawned() uint64 {
	c.mu.Lock()
	n := c.spawned
	c.mu.Unlock()
	return n
}

// Parked returns the number of actors parked on an event, queue or group,
// continuations waiting in Event.Then included (sleepers wait on the timer
// heap and are not counted). After a Drain
// nothing is left that could wake them, so a non-zero count there is a
// liveness failure: an actor waiting for something that will never happen.
func (c *VirtualClock) Parked() int {
	c.mu.Lock()
	n := c.blocked
	c.mu.Unlock()
	return n
}

// Drain runs the simulation until quiescence: every remaining actor has
// either exited or parked on an event/queue that can no longer fire, no
// timers are pending, and every queued callback has run to completion.
// Model time advances as far as the pending work requires. Call it from
// the root actor at the end of an experiment so background traffic
// (asynchronous replication, commit broadcasts, read repair) runs to
// completion instead of leaking parked goroutines. At quiescence Drain also
// retires the idle worker pool: once it returns, every goroutine the clock
// started has exited or is about to, except actors parked for good — which
// Parked counts, and which a correct world has none of.
func (c *VirtualClock) Drain() {
	c.mu.Lock()
	if c.ready.len() == 0 && c.timers.len() == 0 {
		c.retireIdleLocked()
		c.mu.Unlock()
		return
	}
	c.checkCanBlockLocked("Drain")
	if c.idler != nil {
		c.mu.Unlock()
		panic("netsim: concurrent Drain on the same VirtualClock")
	}
	p := c.newActorLocked()
	c.idler = p
	c.dispatchLocked()
	c.mu.Unlock()
	<-p.ch
	c.recycle(p)
}

// NewEvent returns a one-shot broadcast usable by actors of this clock;
// holders that know when they are done with it hand it back with Release.
func (c *VirtualClock) NewEvent() *Event {
	c.mu.Lock()
	e := popLast(&c.freeEvents)
	c.mu.Unlock()
	if e == nil {
		e = &Event{c: c}
	}
	return e
}

// NewQueue returns an unbounded FIFO usable by actors of this clock.
func (c *VirtualClock) NewQueue() *Queue {
	q := &Queue{c: c}
	q.waiters.buf = q.waiter0[:0]
	return q
}

// NewGroup returns a WaitGroup analogue usable by actors of this clock.
func (c *VirtualClock) NewGroup() *Group { return &Group{c: c} }

// StartStopwatch begins measuring model time.
func (c *VirtualClock) StartStopwatch() Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// wakeOneLocked moves one parked actor to the ready queue.
func (c *VirtualClock) wakeOneLocked(p *vactor) {
	c.blocked--
	c.ready.push(p)
}

// waitList is the FIFO of actors parked on an event or group. The first
// waiter is kept inline: most lists only ever hold one, which then costs no
// slice.
type waitList struct {
	first *vactor
	more  []*vactor
}

func (l *waitList) add(p *vactor) {
	if l.first == nil {
		l.first = p
	} else {
		l.more = append(l.more, p)
	}
}

// wakeAllLocked moves the parked actors of l to the ready queue (FIFO order
// preserved) and empties it.
func (c *VirtualClock) wakeAllLocked(l *waitList) {
	if l.first == nil {
		return
	}
	c.blocked -= 1 + len(l.more)
	c.ready.push(l.first)
	for _, p := range l.more {
		c.ready.push(p)
	}
	*l = waitList{}
}

// parkLocked parks the calling actor outside the timer heap and hands the
// token on. Enters with c.mu held, returns with it released, after the
// token has come back. The caller recycles p once done with p.val.
func (c *VirtualClock) parkLocked(p *vactor) {
	c.blocked++
	c.dispatchLocked()
	c.mu.Unlock()
	<-p.ch
}

// Event is a one-shot broadcast: Wait blocks until Fire has been called.
// Fire is idempotent; Wait after Fire returns immediately.
type Event struct {
	c       *VirtualClock
	fired   bool
	waiters waitList
}

func (e *Event) Fire() {
	e.c.mu.Lock()
	if !e.fired {
		e.fired = true
		e.c.wakeAllLocked(&e.waiters)
	}
	e.c.mu.Unlock()
}

func (e *Event) Wait() {
	e.c.mu.Lock()
	if e.fired {
		e.c.mu.Unlock()
		return
	}
	e.c.checkCanBlockLocked("Event.Wait")
	p := e.c.newActorLocked()
	e.waiters.add(p)
	e.c.parkLocked(p)
	e.c.recycle(p)
}

// Then is the continuation twin of Wait: fn runs once the event has fired,
// in the waiter slot — and, after the Fire, the ready-queue slot — a waiting
// actor would hold; on a fired event it runs on the caller's stack before
// Then returns. A waiting continuation counts as parked, like an actor: one
// left waiting for good shows in Parked and in the deadlock check.
func (e *Event) Then(fn func()) {
	e.c.mu.Lock()
	if e.fired {
		e.c.mu.Unlock()
		fn()
		return
	}
	p := e.c.newActorLocked()
	p.then = fn
	e.waiters.add(p)
	e.c.blocked++
	e.c.mu.Unlock()
}

// Release hands the event back to its clock, which returns it, unfired,
// from a later NewEvent. Only the event's last holder may call it, and only
// once nobody can Fire or Wait on it any more — typically the single
// waiter of a private event, right after its Wait returned.
func (e *Event) Release() {
	e.c.mu.Lock()
	e.fired = false
	e.c.freeEvents = append(e.c.freeEvents, e)
	e.c.mu.Unlock()
}

// fifo is a head-indexed growable FIFO used for the queue item buffer and
// waiter list: push appends, pop advances a head index (no reslice, no
// per-pop copy), and the buffer compacts — copying only the live suffix to
// the front — once the dead prefix passes half the backing array. Push and
// pop stay amortized O(1) and memory stays O(live depth), even for queues
// that never fully drain.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.buf):
		f.buf = f.buf[:0]
		f.head = 0
	case f.head > len(f.buf)/2:
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero // drop stale copies so they don't pin objects
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// Queue is an unbounded FIFO. Put never blocks; Get blocks until an item is
// available. A Put with waiters present hands the item directly to the
// longest-waiting actor, so items reach actors in deterministic FIFO
// order. Both the item buffer and the waiter list reuse their backing
// arrays across pops, so a warm handoff allocates nothing; the waiter list
// starts out on an inline slot, which is all a single-consumer queue ever
// needs.
type Queue struct {
	c       *VirtualClock
	items   fifo[any]
	waiters fifo[*vactor]
	waiter0 [1]*vactor
}

func (q *Queue) Put(v any) {
	q.c.mu.Lock()
	if q.waiters.len() > 0 {
		p := q.waiters.pop()
		p.val = v
		q.c.wakeOneLocked(p)
	} else {
		q.items.push(v)
	}
	q.c.mu.Unlock()
}

func (q *Queue) Get() any {
	q.c.mu.Lock()
	if q.items.len() > 0 {
		v := q.items.pop()
		q.c.mu.Unlock()
		return v
	}
	q.c.checkCanBlockLocked("Queue.Get")
	p := q.c.newActorLocked()
	q.waiters.push(p)
	q.c.parkLocked(p)
	v := p.val
	q.c.recycle(p)
	return v
}

// Then is the continuation twin of Get: fn is handed the next item, in the
// waiter slot — and, after the Put, the ready-queue slot — a getting actor
// would hold; with an item queued it runs on the caller's stack before Then
// returns. A waiting continuation counts as parked, like an actor.
func (q *Queue) Then(fn func(any)) {
	q.c.mu.Lock()
	if q.items.len() > 0 {
		v := q.items.pop()
		q.c.mu.Unlock()
		fn(v)
		return
	}
	p := q.c.newActorLocked()
	p.take = fn
	q.waiters.push(p)
	q.c.blocked++
	q.c.mu.Unlock()
}

// Group counts outstanding work like sync.WaitGroup: Wait blocks until the
// counter, moved by Add and Done, reaches zero.
type Group struct {
	c       *VirtualClock
	n       int
	waiters waitList
}

func (g *Group) Add(n int) {
	g.c.mu.Lock()
	g.n += n
	if g.n < 0 {
		g.c.mu.Unlock()
		panic("netsim: negative Group counter")
	}
	g.c.mu.Unlock()
}

func (g *Group) Done() {
	g.c.mu.Lock()
	g.n--
	if g.n < 0 {
		g.c.mu.Unlock()
		panic("netsim: negative Group counter")
	}
	if g.n == 0 {
		g.c.wakeAllLocked(&g.waiters)
	}
	g.c.mu.Unlock()
}

func (g *Group) Wait() {
	g.c.mu.Lock()
	if g.n == 0 {
		g.c.mu.Unlock()
		return
	}
	g.c.checkCanBlockLocked("Group.Wait")
	p := g.c.newActorLocked()
	g.waiters.add(p)
	g.c.parkLocked(p)
	g.c.recycle(p)
}

// Then is the continuation twin of Wait: fn runs once the counter is zero,
// in the waiter slot and then the ready-queue slot a waiting actor would
// hold; at zero already it runs on the caller's stack before Then returns. A
// waiting continuation counts as parked, like an actor.
func (g *Group) Then(fn func()) {
	g.c.mu.Lock()
	if g.n == 0 {
		g.c.mu.Unlock()
		fn()
		return
	}
	p := g.c.newActorLocked()
	p.then = fn
	g.waiters.add(p)
	g.c.blocked++
	g.c.mu.Unlock()
}

// timerEntry is one pending deadline: a callback to run inline (fn set) or
// a Timer (t set) — an owner's, which rings its alarm, or a sleeping
// actor's, which wakes it. Ordering is (deadline, arming sequence), making
// same-instant wakeups — and the interleaving of callbacks with actor
// wakeups — deterministic.
type timerEntry struct {
	at  time.Duration
	seq uint64
	fn  func()
	t   *Timer
}

func (e timerEntry) before(o timerEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timerHeap is a 4-ary min-heap of value entries. Compared to
// container/heap over a slice of pointers, it avoids the interface boxing
// on every Push/Pop and halves the tree depth (sift-down dominates pops;
// four comparisons per level beats two levels of two). Sifting moves an
// entry into a hole rather than swapping, and every placement of a Timer's
// entry records its position in the Timer, which is what lets StopTimer
// remove it at once.
type timerHeap struct {
	a []timerEntry
}

func (h *timerHeap) len() int { return len(h.a) }

// set places e at position i.
func (h *timerHeap) set(i int, e timerEntry) {
	h.a[i] = e
	if e.t != nil {
		e.t.i = i + 1
	}
}

func (h *timerHeap) push(e timerEntry) {
	h.a = append(h.a, timerEntry{})
	h.up(len(h.a)-1, e)
}

func (h *timerHeap) pop() timerEntry { return h.remove(0) }

// remove takes the entry at position i out of the heap and returns it.
func (h *timerHeap) remove(i int) timerEntry {
	a := h.a
	e := a[i]
	n := len(a) - 1
	last := a[n]
	a[n] = timerEntry{} // release the fn/t references
	h.a = a[:n]
	if i < n {
		if i > 0 && last.before(a[(i-1)/4]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	if e.t != nil {
		e.t.i = 0
	}
	return e
}

// up places e at the hole i or above it, moving later parents down.
func (h *timerHeap) up(i int, e timerEntry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h.a[parent]) {
			break
		}
		h.set(i, h.a[parent])
		i = parent
	}
	h.set(i, e)
}

// down places e at the hole i or below it, moving earlier children up.
func (h *timerHeap) down(i int, e timerEntry) {
	a := h.a
	n := len(a)
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		min := first
		for ci := first + 1; ci < first+4 && ci < n; ci++ {
			if a[ci].before(a[min]) {
				min = ci
			}
		}
		if !a[min].before(e) {
			break
		}
		h.set(i, a[min])
		i = min
	}
	h.set(i, e)
}
