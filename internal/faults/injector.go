package faults

import (
	randv2 "math/rand/v2"
	"sync"
	"time"

	"correctables/internal/netsim"
)

// Transition is one applied fault event, as recorded in the injector's log
// and handed to subscribers.
type Transition struct {
	// At is the model instant the transition fired.
	At time.Duration
	// Event is the applied event (a ruleExpiry or quiesce for internal
	// transitions; subscribers that only care about specific kinds
	// type-switch on the exported event types).
	Event Event
	// Desc is the event's rendered description (fault logs).
	Desc string
}

// Quiesced reports whether this transition is the final one fired by
// Injector.Quiesce (subscribers that run periodic machinery — election
// timers, mining ticks — use it to stand down so the clock can drain).
func (t Transition) Quiesced() bool {
	_, ok := t.Event.(quiesce)
	return ok
}

// Injector replays a fault schedule against a transport. It implements
// netsim.Interceptor: every message is judged against the current fault
// epoch (partition groups, down regions, latency spikes, lossy links), and
// every transition — scheduled via clock callbacks, so it interleaves
// deterministically with traffic — bumps the epoch and wakes stalled
// senders for a recheck.
//
// Stores subscribe to transitions to wire recovery semantics (state
// transfer to rejoining replicas); subscriber callbacks run in clock
// callback context and must not block.
type Injector struct {
	clock netsim.Clock

	mu  sync.Mutex
	rng *randv2.Rand // Drop sampling
	// parts holds every active partition, oldest first.
	parts []Partition
	// down counts active Crash events per region (overlapping random
	// schedules may crash a region twice before the first Restart).
	down   map[netsim.Region]int
	spikes []linkRule
	drops  []linkRule
	nextID int
	// epochEv is fired and replaced on every transition; stalled senders
	// wait on it and recheck passability.
	epochEv *netsim.Event
	done    bool
	log     []Transition
	subs    []func(Transition)
}

// linkRule is one active latency-spike or drop rule. Empty regions are
// wildcards; a set pair matches that link in either direction.
type linkRule struct {
	id       int
	from, to netsim.Region
	factor   float64 // spikes
	prob     float64 // drops
}

func (r linkRule) matches(a, b netsim.Region) bool {
	switch {
	case r.from == "" && r.to == "":
		return true
	case r.to == "":
		return r.from == a || r.from == b
	case r.from == "":
		return r.to == a || r.to == b
	default:
		return (r.from == a && r.to == b) || (r.from == b && r.to == a)
	}
}

// Attach builds an injector over the transport's clock, installs it as the
// transport's interceptor, and arms every event of the schedule as a clock
// callback. seed fixes the drop-sampling RNG. The schedule may be nil
// (drive the injector with Apply instead). Attach before constructing
// stores on the transport: stores inspect Transport.Interceptor at
// construction to wire their crash-recovery hooks.
func Attach(tr *netsim.Transport, sched *Schedule, seed int64) *Injector {
	i := &Injector{
		clock: tr.Clock(),
		rng:   randv2.New(randv2.NewPCG(uint64(seed), 0xfa017)),
		down:  make(map[netsim.Region]int),
	}
	i.epochEv = i.clock.NewEvent()
	tr.SetInterceptor(i)
	if sched != nil {
		for _, te := range sched.Events() {
			ev := te.Event
			i.clock.RunAt(te.At, func() { i.Apply(ev) })
		}
	}
	return i
}

// Apply fires one fault event now (immediately, as if scheduled at the
// current instant). No-op after Quiesce.
func (i *Injector) Apply(ev Event) {
	i.mu.Lock()
	if i.done {
		i.mu.Unlock()
		return
	}
	i.applyLocked(ev)
}

// applyLocked mutates state, logs the transition, rolls the epoch event and
// notifies subscribers in registration order. Enters with i.mu held,
// returns with it released.
func (i *Injector) applyLocked(ev Event) {
	ev.mutate(i)
	tr := Transition{At: i.clock.Now(), Event: ev, Desc: ev.String()}
	i.log = append(i.log, tr)
	old := i.epochEv
	i.epochEv = i.clock.NewEvent()
	subs := i.subs
	i.mu.Unlock()
	old.Fire() // stalled senders recheck against the new epoch
	for _, fn := range subs {
		fn(tr)
	}
}

// addRuleLocked installs a spike/drop rule and, for a bounded Duration,
// arms its expiry as a further transition. Called from mutate (i.mu held).
func (i *Injector) addRuleLocked(list *[]linkRule, r linkRule, dur time.Duration, desc string) {
	i.nextID++
	r.id = i.nextID
	*list = append(*list, r)
	if dur > 0 {
		exp := ruleExpiry{list: list, id: r.id, desc: desc}
		i.clock.RunAfter(dur, func() { i.Apply(exp) })
	}
}

// Quiesce clears every active fault — partition, crashes, spikes, drops —
// and disables all further scheduled events, so stalled traffic drains.
// Call it when the measured run is over, before VirtualClock.Drain;
// subscribers see one final transition to run their last resync.
func (i *Injector) Quiesce() {
	i.mu.Lock()
	if i.done {
		i.mu.Unlock()
		return
	}
	i.done = true
	i.applyLocked(quiesce{})
}

// Subscribe registers fn to run after every transition (including expiries
// and the final Quiesce). Callbacks run in clock callback context: they
// must not block, and typically just compare replica states and arm
// asynchronous state-transfer sends, or read Down to track a region's
// liveness.
func (i *Injector) Subscribe(fn func(Transition)) {
	i.mu.Lock()
	// Copy-on-write: applyLocked snapshots i.subs without copying, so the
	// slice it iterates must never be appended to in place.
	subs := make([]func(Transition), len(i.subs), len(i.subs)+1)
	copy(subs, i.subs)
	i.subs = append(subs, fn)
	i.mu.Unlock()
}

// Reachable reports whether a message from a to b would currently make
// progress: both endpoints up and no active partition separating them.
// Probabilistic Drop rules are not consulted — they lose individual
// messages, not the link.
func (i *Injector) Reachable(a, b netsim.Region) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.passableLocked(a, b)
}

// Down reports whether the region is currently crashed: a crash not yet
// matched by a Restart is in force (overlapping crashes of one region
// need one Restart each), and Quiesce restarts every region.
func (i *Injector) Down(r netsim.Region) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.down[r] > 0
}

// Faulted reports whether any fault is currently in force: an active
// partition, a crashed region, or a latency-spike/drop rule.
func (i *Injector) Faulted() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if len(i.parts) > 0 || len(i.spikes) > 0 || len(i.drops) > 0 {
		return true
	}
	for _, n := range i.down {
		if n > 0 {
			return true
		}
	}
	return false
}

// Log returns a copy of every transition applied so far, in order.
func (i *Injector) Log() []Transition {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Transition(nil), i.log...)
}

// passableLocked reports whether a message from->to can currently make
// progress (both endpoints up, and no active partition between them).
func (i *Injector) passableLocked(from, to netsim.Region) bool {
	if i.down[from] > 0 || i.down[to] > 0 {
		return false
	}
	return !i.partitionedLocked(from, to)
}

// partitionedLocked reports whether some active partition places the two
// regions in different groups.
func (i *Injector) partitionedLocked(a, b netsim.Region) bool {
	for _, p := range i.parts {
		if p.groupOf(a) != p.groupOf(b) {
			return true
		}
	}
	return false
}

// Intercept implements netsim.Interceptor.
func (i *Injector) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.passableLocked(from, to) {
		return netsim.VerdictStall, 1
	}
	factor := 1.0
	for _, r := range i.spikes {
		if r.matches(from, to) {
			factor *= r.factor
		}
	}
	for _, r := range i.drops {
		if r.matches(from, to) && i.rng.Float64() < r.prob {
			return netsim.VerdictDrop, factor
		}
	}
	return netsim.VerdictDeliver, factor
}

// Changed implements netsim.Interceptor: the event the next transition
// fires. A stalled sender waits on it and has the link judged again.
func (i *Injector) Changed() *netsim.Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.epochEv
}
