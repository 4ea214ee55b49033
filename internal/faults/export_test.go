package faults

import (
	"sort"
	"time"

	"correctables/internal/netsim"
)

// Helpers only the package's own tests call.

// Partitioned reports whether a partition is currently in force between
// the two regions (false if either is merely down).
func (i *Injector) Partitioned(a, b netsim.Region) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.partitionedLocked(a, b)
}

// UnmatchedCrashes returns the regions the schedule leaves crashed after
// its last event: every Crash without a later matching Restart, sorted by
// region name. Random never generates one — each Crash is paired with a
// Restart at or before the profile horizon — so the returned slice is the
// "permanent crashes" tag for hand-built schedules: experiments that
// require eventual recovery assert it is empty.
func (s *Schedule) UnmatchedCrashes() []netsim.Region {
	balance := make(map[netsim.Region]int)
	for _, te := range s.Events() {
		switch ev := te.Event.(type) {
		case Crash:
			balance[ev.Region]++
		case Restart:
			// A Restart with no prior Crash is a no-op at the injector too.
			if balance[ev.Region] > 0 {
				balance[ev.Region]--
			}
		}
	}
	var out []netsim.Region
	for r, n := range balance {
		if n > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Horizon returns the instant of the last scheduled event.
func (s *Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, te := range s.events {
		if te.At > h {
			h = te.At
		}
	}
	return h
}
