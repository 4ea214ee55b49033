// Package faults is the deterministic fault-injection subsystem: typed
// fault schedules (partitions, crashes, latency spikes, lossy links)
// layered on the virtual clock, FoundationDB-style. A Schedule is built
// explicitly with the scenario DSL (NewSchedule().At(...)), taken from the
// named catalog (ScenarioByName), or generated from a seed (Random); an
// Injector attached to a netsim.Transport then replays it, firing every
// fault transition as a clock callback (RunAt) so transitions interleave
// deterministically with traffic. Same seed + same schedule ⇒ the same
// event sequence, byte for byte — a bug found under a fault schedule is
// replayed, not chased.
//
// Semantics at the transport (see netsim.Transport):
//
//   - severed links (partition) and down endpoints (crash) stall
//     synchronous Travel until the fault clears, and silently drop
//     fire-and-forget Send/SendAfter traffic — lost in-flight state;
//   - LatencySpike multiplies the one-way delay of matching links;
//   - Drop loses each matching message with probability Prob; synchronous
//     sends retransmit after an RTO, asynchronous sends are lost.
//
// Stores built on a faulted transport (they check Transport.Interceptor at
// construction) wire crash-recovery hooks: a restarted ZooKeeper server or
// causal backup is resynced from the leader/primary by state transfer, a
// restarted Cassandra replica rejoins stale and heals through read repair,
// and chain mining pauses while the miner's region is down. Client
// invocations that a fault makes impossible fail with ErrUnreachable after
// the store's OpTimeout of model time instead of hanging.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"correctables/internal/netsim"
)

// Event is one typed fault transition. Implementations are the exported
// structs of this package (Partition, Heal, Crash, Restart, LatencySpike,
// Drop); the mutate method seals the interface.
type Event interface {
	// String renders the event for fault logs.
	String() string
	// mutate applies the event to injector state; called with i.mu held.
	mutate(i *Injector)
}

// Partition splits the regions into isolated groups: messages between
// regions of different groups are severed (stalled synchronously, dropped
// asynchronously) until a Heal. Regions not named in any group implicitly
// ride with group 0.
//
// Partitions compose: a Partition firing while another is in force does not
// replace it (the old silent-replacement semantics lost the first fault).
// The injector keeps every active partition and enforces their common
// refinement — two regions communicate only if every active partition
// places them in the same group.
//
// ID pairs a Partition with the Heal that ends it. A zero ID keeps the
// legacy single-track convention: an untagged Heal ends the *oldest*
// still-active partition (schedules pair every Partition with its own Heal
// in time order). Composed schedules (Compose) rewrite every pair to unique
// nonzero IDs so concurrent tracks cannot heal each other's partitions and
// overlapping windows keep independent lifetimes.
type Partition struct {
	Groups [][]netsim.Region
	ID     int
}

// String implements Event.
func (p Partition) String() string {
	parts := make([]string, len(p.Groups))
	for i, g := range p.Groups {
		names := make([]string, len(g))
		for j, r := range g {
			names[j] = string(r)
		}
		parts[i] = "{" + strings.Join(names, " ") + "}"
	}
	return "partition " + strings.Join(parts, " | ")
}

func (p Partition) mutate(i *Injector) { i.parts = append(i.parts, p) }

// groupOf returns the index of the group naming r (the last, should several
// name it), or 0 when none does.
func (p Partition) groupOf(r netsim.Region) int {
	g := 0
	for gi, rs := range p.Groups {
		for _, x := range rs {
			if x == r {
				g = gi
			}
		}
	}
	return g
}

// Heal ends an active partition: the one carrying the same nonzero ID, or —
// untagged, ID zero — the oldest still active (all its links are whole
// again unless a later, still-active partition severs them; crashed regions
// stay down until their Restart). With a single partition in force this is
// the familiar "heal clears the partition". A Heal whose ID matches no
// active partition is a no-op.
type Heal struct {
	ID int
}

// String implements Event.
func (Heal) String() string { return "heal" }

func (h Heal) mutate(i *Injector) {
	switch {
	case h.ID != 0:
		for j, p := range i.parts {
			if p.ID == h.ID {
				i.parts = append(i.parts[:j:j], i.parts[j+1:]...)
				break
			}
		}
	case len(i.parts) > 0:
		i.parts = i.parts[1:]
	}
}

// Crash takes the region down: every message to or from it is severed, and
// fire-and-forget traffic already addressed to it is lost. Durable state
// survives; in-flight state does not.
type Crash struct {
	Region netsim.Region
}

// String implements Event.
func (c Crash) String() string { return "crash " + string(c.Region) }

func (c Crash) mutate(i *Injector) { i.down[c.Region]++ }

// Restart brings a crashed region back up. Stores subscribed to the
// injector use the transition to resync the rejoining replica.
type Restart struct {
	Region netsim.Region
}

// String implements Event.
func (r Restart) String() string { return "restart " + string(r.Region) }

func (r Restart) mutate(i *Injector) {
	if i.down[r.Region] > 0 {
		i.down[r.Region]--
	}
}

// LatencySpike multiplies the one-way delay of matching links by Factor for
// Duration (0 = until Quiesce). An empty To matches every link touching
// From; both empty matches every link. Overlapping spikes compound.
type LatencySpike struct {
	From, To netsim.Region
	Factor   float64
	Duration time.Duration
}

// String implements Event.
func (s LatencySpike) String() string {
	return fmt.Sprintf("latency-spike %s x%.1f for %v", linkName(s.From, s.To), s.Factor, s.Duration)
}

func (s LatencySpike) mutate(i *Injector) {
	i.addRuleLocked(&i.spikes, linkRule{from: s.From, to: s.To, factor: s.Factor}, s.Duration, s.String())
}

// Drop loses each message on matching links with probability Prob for
// Duration (0 = until Quiesce). Wildcards as in LatencySpike.
type Drop struct {
	From, To netsim.Region
	Prob     float64
	Duration time.Duration
}

// String implements Event.
func (d Drop) String() string {
	return fmt.Sprintf("drop %s p=%.2f for %v", linkName(d.From, d.To), d.Prob, d.Duration)
}

func (d Drop) mutate(i *Injector) {
	i.addRuleLocked(&i.drops, linkRule{from: d.From, to: d.To, prob: d.Prob}, d.Duration, d.String())
}

// quiesce is the internal transition Quiesce logs.
type quiesce struct{}

func (quiesce) String() string { return "quiesce: all faults cleared" }

func (quiesce) mutate(i *Injector) {
	i.parts = nil
	i.down = make(map[netsim.Region]int)
	i.spikes = nil
	i.drops = nil
}

// ruleExpiry ends a timed LatencySpike or Drop.
type ruleExpiry struct {
	list *[]linkRule
	id   int
	desc string
}

func (e ruleExpiry) String() string { return "expire: " + e.desc }

func (e ruleExpiry) mutate(i *Injector) {
	rules := *e.list
	for j, r := range rules {
		if r.id == e.id {
			*e.list = append(rules[:j:j], rules[j+1:]...)
			return
		}
	}
}

func linkName(from, to netsim.Region) string {
	switch {
	case from == "" && to == "":
		return "*<->*"
	case to == "":
		return string(from) + "<->*"
	case from == "":
		return string(to) + "<->*"
	default:
		return string(from) + "<->" + string(to)
	}
}

// TimedEvent is one schedule entry: an event at an absolute model instant.
type TimedEvent struct {
	At    time.Duration
	Event Event
}

// Schedule is an ordered list of fault events — the scenario DSL. Build one
// with NewSchedule().At(...).At(...), pick a named one with ScenarioByName,
// or generate one from a seed with Random.
type Schedule struct {
	events []TimedEvent
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// At appends events firing at the absolute model instant at, returning the
// schedule for chaining. Events need not be added in time order.
func (s *Schedule) At(at time.Duration, evs ...Event) *Schedule {
	for _, ev := range evs {
		s.events = append(s.events, TimedEvent{At: at, Event: ev})
	}
	return s
}

// Events returns the schedule sorted by time (stable: events added at the
// same instant fire in insertion order).
func (s *Schedule) Events() []TimedEvent {
	out := append([]TimedEvent(nil), s.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the schedule, one event per line.
func (s *Schedule) String() string {
	var b strings.Builder
	for _, te := range s.Events() {
		fmt.Fprintf(&b, "%8v  %s\n", te.At, te.Event)
	}
	return b.String()
}
