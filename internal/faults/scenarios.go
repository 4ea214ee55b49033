package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"correctables/internal/netsim"
)

// Phase is one reporting window of a scenario: experiment drivers bucket
// their per-operation measurements by the phase the operation started in.
type Phase struct {
	Name       string
	Start, End time.Duration
}

// Scenario is a schedule plus its reporting phases. Named scenarios are
// parameterized by a time unit u; their events fire at fixed multiples of
// it, so one scenario serves both full runs (u ~ seconds) and quick smoke
// runs (u ~ hundreds of milliseconds).
type Scenario struct {
	Name        string
	Description string
	Schedule    *Schedule
	Phases      []Phase
	// Horizon is the measured span; drivers stop offering load at it.
	Horizon time.Duration
}

// phasesOf builds equal-width phases of the given names over [0, n*u).
func phasesOf(u time.Duration, width int, names ...string) []Phase {
	out := make([]Phase, len(names))
	for i, n := range names {
		out[i] = Phase{Name: n, Start: time.Duration(i*width) * u, End: time.Duration((i+1)*width) * u}
	}
	return out
}

// ScenarioNames lists the catalog, in presentation order.
func ScenarioNames() []string {
	return []string{"minority-partition", "split-brain", "flaky-wan", "rolling-crash"}
}

// ScenarioByName resolves a named scenario at time unit u. The catalog uses
// the canonical FRK/IRL/VRG deployment:
//
//   - minority-partition: VRG is severed for 4u, heals, then crashes for 4u
//     and restarts — the headline weak-vs-strong asymmetry scenario.
//   - split-brain: every region in its own partition group for 4u.
//   - flaky-wan: every VRG link drops 20% of messages and the IRL<->VRG
//     link runs 8x slow for 8u.
//   - rolling-crash: each region in turn (FRK — the usual leader/primary —
//     first) crashes for 2u with 2u of calm in between.
func ScenarioByName(name string, u time.Duration) (*Scenario, error) {
	if u <= 0 {
		return nil, fmt.Errorf("faults: scenario unit must be positive, got %v", u)
	}
	switch name {
	case "minority-partition":
		return &Scenario{
			Name:        name,
			Description: "VRG severed from {FRK IRL} for 4u, heal, then VRG crashes for 4u and restarts",
			Schedule: NewSchedule().
				At(4*u, Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.IRL}, {netsim.VRG}}}).
				At(8*u, Heal{}).
				At(12*u, Crash{Region: netsim.VRG}).
				At(16*u, Restart{Region: netsim.VRG}),
			Phases:  phasesOf(u, 4, "healthy", "partition", "healed", "crash", "recovered"),
			Horizon: 20 * u,
		}, nil
	case "split-brain":
		return &Scenario{
			Name:        name,
			Description: "three-way partition (every region isolated) for 4u",
			Schedule: NewSchedule().
				At(4*u, Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL}, {netsim.VRG}}}).
				At(8*u, Heal{}),
			Phases:  phasesOf(u, 4, "healthy", "split", "healed"),
			Horizon: 12 * u,
		}, nil
	case "flaky-wan":
		return &Scenario{
			Name:        name,
			Description: "VRG links drop 20% of messages and IRL<->VRG runs 8x slow for 8u",
			Schedule: NewSchedule().
				At(2*u, Drop{From: netsim.VRG, Prob: 0.2, Duration: 8 * u}).
				At(2*u, LatencySpike{From: netsim.IRL, To: netsim.VRG, Factor: 8, Duration: 8 * u}),
			Phases:  phasesOf(u, 2, "healthy", "flaky", "flaky2", "flaky3", "flaky4", "recovered"),
			Horizon: 12 * u,
		}, nil
	case "rolling-crash":
		s := NewSchedule()
		regions := []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}
		for i, r := range regions {
			at := time.Duration(2+4*i) * u
			s.At(at, Crash{Region: r})
			s.At(at+2*u, Restart{Region: r})
		}
		return &Scenario{
			Name:        name,
			Description: "each region in turn crashes for 2u (FRK first) with 2u of calm between",
			Schedule:    s,
			Phases: []Phase{
				{Name: "healthy", Start: 0, End: 2 * u},
				{Name: "crash-frk", Start: 2 * u, End: 6 * u},
				{Name: "crash-irl", Start: 6 * u, End: 10 * u},
				{Name: "crash-vrg", Start: 10 * u, End: 14 * u},
				{Name: "recovered", Start: 14 * u, End: 16 * u},
			},
			Horizon: 16 * u,
		}, nil
	default:
		return nil, fmt.Errorf("faults: unknown scenario %q (have %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
}

// ParseSpec resolves a -faults command-line spec at time unit u: either a
// scenario name from the catalog ("minority-partition") or "<seed>:<profile>"
// ("7:tracks-harsh") for a random schedule generated from the seed: the
// profile's independently seeded nemesis tracks, composed. Random scenarios
// report over four equal phase windows.
func ParseSpec(spec string, u time.Duration) (*Scenario, error) {
	if seedStr, profStr, ok := strings.Cut(spec, ":"); ok {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad seed in spec %q: %v", spec, err)
		}
		profs, err := ProfilesByName(profStr, u)
		if err != nil {
			return nil, err
		}
		var horizon time.Duration
		for _, p := range profs {
			horizon = max(horizon, p.Horizon)
		}
		q := horizon / 4
		return &Scenario{
			Name:        spec,
			Description: fmt.Sprintf("random schedule, seed %d, profile %s", seed, profStr),
			Schedule:    Compose(RandomTracks(seed, profs)...),
			Phases: []Phase{
				{Name: "q1", Start: 0, End: q},
				{Name: "q2", Start: q, End: 2 * q},
				{Name: "q3", Start: 2 * q, End: 3 * q},
				{Name: "q4", Start: 3 * q, End: horizon},
			},
			Horizon: horizon,
		}, nil
	}
	return ScenarioByName(spec, u)
}
