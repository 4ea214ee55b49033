// Package netsim simulates the wide-area network substrate of the paper's
// evaluation (§6.1): Amazon EC2 regions with measured round-trip times,
// per-link bandwidth metering, and bounded-capacity servers.
//
// The paper ran on m4.large instances in Frankfurt (FRK), Ireland (IRL) and
// N. Virginia (VRG) with a replication factor of 3; the Twissandra case study
// used Virginia, N. California and Oregon. We reproduce the RTTs the paper
// reports (IRL-FRK 20 ms, IRL-VRG 83 ms) and fill in the remaining pairs with
// publicly known inter-region latencies of the same era.
//
// All simulated delays go through a Clock, the deterministic discrete-event
// scheduler VirtualClock: actors park on virtual deadlines and, whenever
// every actor is blocked, model time jumps straight to the earliest
// deadline — experiments run at CPU speed and same-seed runs are
// bit-for-bit reproducible. Latencies are reported in model time, i.e. on
// the paper's axes.
package netsim

import (
	"fmt"
	"time"
)

// Region identifies a datacenter region.
type Region string

// The regions used in the paper's evaluation.
const (
	FRK Region = "eu-frankfurt"  // Frankfurt
	IRL Region = "eu-ireland"    // Ireland
	VRG Region = "us-virginia"   // N. Virginia
	NCA Region = "us-california" // N. California (Twissandra deployment)
	ORE Region = "us-oregon"     // Oregon (Twissandra deployment)
)

// LatencyModel maps region pairs to round-trip times. Same-region RTT is
// LocalRTT.
type LatencyModel struct {
	// RTTs holds full round-trip times keyed by unordered region pair.
	RTTs map[[2]Region]time.Duration
	// LocalRTT is the round-trip time between two nodes in the same region.
	LocalRTT time.Duration
}

func pairKey(a, b Region) [2]Region {
	if a > b {
		a, b = b, a
	}
	return [2]Region{a, b}
}

// DefaultLatencies returns the latency model used throughout the paper's
// evaluation. The IRL-FRK (20 ms) and IRL-VRG (83 ms) values are the ones
// the paper reports explicitly (§6.2.1, §6.2.2); the others are plausible
// same-era inter-region RTTs chosen to preserve the paper's geometry
// (VRG much farther from Europe than FRK/IRL are from each other; the three
// US-west/east regions closer to one another than to Europe).
func DefaultLatencies() *LatencyModel {
	m := &LatencyModel{
		RTTs:     make(map[[2]Region]time.Duration),
		LocalRTT: 2 * time.Millisecond, // paper: client colocated with IRL replica sees 2 ms
	}
	set := func(a, b Region, rtt time.Duration) { m.RTTs[pairKey(a, b)] = rtt }
	set(IRL, FRK, 20*time.Millisecond)
	set(IRL, VRG, 83*time.Millisecond)
	set(FRK, VRG, 89*time.Millisecond)
	set(VRG, NCA, 62*time.Millisecond)
	set(VRG, ORE, 72*time.Millisecond)
	set(NCA, ORE, 21*time.Millisecond)
	set(IRL, NCA, 140*time.Millisecond)
	set(IRL, ORE, 132*time.Millisecond)
	set(FRK, NCA, 148*time.Millisecond)
	set(FRK, ORE, 153*time.Millisecond)
	return m
}

// RTT returns the round-trip time between two regions.
func (m *LatencyModel) RTT(a, b Region) time.Duration {
	if a == b {
		return m.LocalRTT
	}
	if d, ok := m.RTTs[pairKey(a, b)]; ok {
		return d
	}
	panic(fmt.Sprintf("netsim: no latency configured between %s and %s", a, b))
}

// OneWay returns the one-way delay between two regions (RTT/2).
func (m *LatencyModel) OneWay(a, b Region) time.Duration {
	return m.RTT(a, b) / 2
}

// SortByProximity orders candidates by RTT from the given origin, closest
// first (origin itself, if present, sorts first with LocalRTT). This is how
// a quorum coordinator picks which replicas to wait for.
func (m *LatencyModel) SortByProximity(origin Region, candidates []Region) []Region {
	out := append([]Region(nil), candidates...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && m.RTT(origin, out[j]) < m.RTT(origin, out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
