package faults

import (
	"fmt"
	randv2 "math/rand/v2"
	"strings"
	"time"

	"correctables/internal/netsim"
)

// Profile parameterizes random schedule generation: which regions can
// fault, how often faults start, how long they last, and the relative
// weights of the four fault kinds.
type Profile struct {
	Name string
	// Regions is the fault domain (default: the canonical FRK/IRL/VRG
	// deployment).
	Regions []netsim.Region
	// Horizon bounds the schedule; no fault starts after it.
	Horizon time.Duration
	// MeanGap is the mean spacing between fault onsets (exponential).
	MeanGap time.Duration
	// MeanDuration is the mean fault length (exponential, clamped so every
	// fault ends by Horizon).
	MeanDuration time.Duration
	// PartitionW, CrashW, SpikeW, DropW weight the fault kinds.
	PartitionW, CrashW, SpikeW, DropW float64
}

// defaultRegions is the paper's canonical deployment.
func defaultRegions() []netsim.Region {
	return []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}
}

// ProfileNames lists every name ProfilesByName resolves: the composed track
// products.
func ProfileNames() []string {
	return []string{"tracks-mild", "tracks-harsh", "tracks-sharded"}
}

// trackProfile is one per-kind nemesis track: a Profile with a single fault
// kind enabled, named after the track, scaled to the given time unit (see
// ScenarioByName for the unit convention; Horizon is 20 units).
func trackProfile(name string, unit time.Duration, gap, dur time.Duration) Profile {
	p := Profile{
		Name:         name,
		Regions:      defaultRegions(),
		Horizon:      20 * unit,
		MeanGap:      gap,
		MeanDuration: dur,
	}
	switch name {
	case "partitions":
		p.PartitionW = 1
	case "crashes":
		p.CrashW = 1
	case "wan":
		p.SpikeW = 1
		p.DropW = 1
	}
	return p
}

// ProfilesByName resolves a profile name into the per-track generation
// profiles it denotes. Each product composes independently seeded per-kind
// nemeses over the same horizon:
//
//   - tracks-mild: a partitions track plus a lossy/slow-WAN track, each at
//     roughly the mild cadence.
//   - tracks-harsh: partitions + rolling crashes + lossy WAN, each at the
//     harsh cadence, so all three nemeses routinely overlap.
//   - tracks-sharded: the tracks-mild product for sharded worlds. The
//     schedules are the same partition + WAN nemeses; consumers that
//     recognize the name (the bench hunt) run them against a multi-shard
//     cluster, so cross-shard quorum reads and shard-tagged hint replay go
//     under the checkers.
func ProfilesByName(name string, unit time.Duration) ([]Profile, error) {
	switch name {
	case "tracks-mild", "tracks-sharded":
		return []Profile{
			trackProfile("partitions", unit, 6*unit, 2*unit),
			trackProfile("wan", unit, 4*unit, 2*unit),
		}, nil
	case "tracks-harsh":
		return []Profile{
			trackProfile("partitions", unit, 3*unit, 3*unit),
			trackProfile("crashes", unit, 5*unit, 2*unit),
			trackProfile("wan", unit, 2*unit, 3*unit),
		}, nil
	default:
		return nil, fmt.Errorf("faults: unknown profile %q (have %s)", name, strings.Join(ProfileNames(), ", "))
	}
}

// RandomTracks generates one independently seeded schedule per profile,
// naming each track after its profile. Per-track seeds derive
// deterministically from the master seed, so (seed, profiles) is a complete
// reproduction recipe exactly as with Random.
func RandomTracks(seed int64, profiles []Profile) []Track {
	rng := randv2.New(randv2.NewPCG(uint64(seed), 0x7ac45))
	tracks := make([]Track, len(profiles))
	for i, p := range profiles {
		sub := int64(rng.Uint64())
		tracks[i] = Track{Name: p.Name, Schedule: Random(sub, p)}
	}
	return tracks
}

// Random generates a schedule from a seed: fault onsets arrive as a Poisson
// process (MeanGap), each fault's kind is drawn by weight and its length
// from MeanDuration, and every fault is paired with the transition that
// ends it (Heal, Restart, or rule expiry), clamped to the profile Horizon —
// in particular every Crash has a matching Restart at or before the
// horizon, so Schedule.UnmatchedCrashes is always empty for a generated
// schedule and long-running experiments are guaranteed eventual recovery.
// The generation is a pure function of (seed, profile): the same pair
// always yields the same schedule, which is what makes a seed a complete
// reproduction recipe.
func Random(seed int64, p Profile) *Schedule {
	if len(p.Regions) == 0 {
		p.Regions = defaultRegions()
	}
	rng := randv2.New(randv2.NewPCG(uint64(seed), 0x5eed5))
	s := NewSchedule()
	total := p.PartitionW + p.CrashW + p.SpikeW + p.DropW
	if total <= 0 || p.Horizon <= 0 || p.MeanGap <= 0 {
		return s
	}
	exp := func(mean time.Duration) time.Duration {
		return time.Duration(float64(mean) * rng.ExpFloat64())
	}
	pick := func() netsim.Region { return p.Regions[rng.IntN(len(p.Regions))] }
	pickPair := func() (netsim.Region, netsim.Region) {
		a := rng.IntN(len(p.Regions))
		b := rng.IntN(len(p.Regions) - 1)
		if b >= a {
			b++
		}
		return p.Regions[a], p.Regions[b]
	}

	partID := 0
	for t := exp(p.MeanGap); t < p.Horizon; t += exp(p.MeanGap) {
		end := t + exp(p.MeanDuration)
		if end > p.Horizon {
			end = p.Horizon
		}
		dur := end - t
		if dur <= 0 {
			continue
		}
		switch w := rng.Float64() * total; {
		case w < p.PartitionW:
			// Isolate one region from the rest. Overlapping partitions
			// compose by refinement at the injector; the ID pairs each
			// partition with its own Heal, so windows whose ends arrive out
			// of onset order still keep independent lifetimes.
			iso := pick()
			rest := make([]netsim.Region, 0, len(p.Regions)-1)
			for _, r := range p.Regions {
				if r != iso {
					rest = append(rest, r)
				}
			}
			partID++
			s.At(t, Partition{Groups: [][]netsim.Region{rest, {iso}}, ID: partID})
			s.At(end, Heal{ID: partID})
		case w < p.PartitionW+p.CrashW:
			r := pick()
			s.At(t, Crash{Region: r})
			s.At(end, Restart{Region: r})
		case w < p.PartitionW+p.CrashW+p.SpikeW:
			a, b := pickPair()
			s.At(t, LatencySpike{From: a, To: b, Factor: 4 + 16*rng.Float64(), Duration: dur})
		default:
			a, b := pickPair()
			s.At(t, Drop{From: a, To: b, Prob: 0.05 + 0.25*rng.Float64(), Duration: dur})
		}
	}
	return s
}
