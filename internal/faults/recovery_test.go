package faults

import (
	"testing"
	"time"

	"correctables/internal/netsim"
)

// TestOverlappingPartitionsCompose is the regression test for the silent-
// replacement bug: a Partition firing while another is in force used to
// replace it wholesale, losing the first fault. Overlapping partitions now
// compose by refinement — two regions communicate only if every active
// partition groups them together — and each Heal ends the oldest active
// partition only.
func TestOverlappingPartitionsCompose(t *testing.T) {
	_, _, inj := newFabric(t)

	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.IRL}, {netsim.VRG}}})
	if !inj.Partitioned(netsim.FRK, netsim.VRG) || inj.Partitioned(netsim.FRK, netsim.IRL) {
		t.Fatal("first partition not in force")
	}

	// Overlap: the second partition separates FRK from IRL. The refinement
	// isolates all three regions.
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}})
	for _, pair := range [][2]netsim.Region{
		{netsim.FRK, netsim.IRL}, {netsim.FRK, netsim.VRG}, {netsim.IRL, netsim.VRG},
	} {
		if !inj.Partitioned(pair[0], pair[1]) {
			t.Errorf("refinement does not separate %s from %s", pair[0], pair[1])
		}
	}

	// First Heal ends the *oldest* partition: the second one stays in force.
	inj.Apply(Heal{})
	if !inj.Partitioned(netsim.FRK, netsim.IRL) {
		t.Error("second partition lost with the first heal (replacement semantics)")
	}
	if inj.Partitioned(netsim.IRL, netsim.VRG) {
		t.Error("first partition still in force after its heal")
	}

	inj.Apply(Heal{})
	if inj.Partitioned(netsim.FRK, netsim.IRL) || inj.Partitioned(netsim.FRK, netsim.VRG) {
		t.Error("partitions survive after both heals")
	}
	// A surplus Heal is a no-op, not a panic.
	inj.Apply(Heal{})
}

// TestPartitionMergeKeepsUnnamedWithGroupZero: regions named in no active
// partition implicitly ride in group 0 of each; the merged map must keep
// them grouped with regions every partition explicitly placed in group 0.
func TestPartitionMergeKeepsUnnamedWithGroupZero(t *testing.T) {
	_, _, inj := newFabric(t)
	// FRK is named in neither partition: it rides with IRL in the first
	// (both group 0) and with VRG in the second — the refinement leaves it
	// alone.
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.IRL}, {netsim.VRG}}})
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.VRG}, {netsim.IRL}}})
	if !inj.Partitioned(netsim.FRK, netsim.IRL) {
		t.Error("unnamed FRK not separated from IRL (group-1 in partition 2)")
	}
	if !inj.Partitioned(netsim.FRK, netsim.VRG) {
		t.Error("unnamed FRK not separated from VRG (group-1 in partition 1)")
	}
	inj.Quiesce()
}

// TestUnmatchedCrashes: the permanent-crash tag on hand-built schedules.
func TestUnmatchedCrashes(t *testing.T) {
	s := NewSchedule().
		At(1*time.Second, Crash{Region: netsim.VRG}).
		At(2*time.Second, Crash{Region: netsim.IRL}).
		At(3*time.Second, Restart{Region: netsim.IRL})
	got := s.UnmatchedCrashes()
	if len(got) != 1 || got[0] != netsim.VRG {
		t.Fatalf("UnmatchedCrashes = %v, want [%s]", got, netsim.VRG)
	}
	s.At(4*time.Second, Restart{Region: netsim.VRG})
	if got := s.UnmatchedCrashes(); len(got) != 0 {
		t.Fatalf("UnmatchedCrashes = %v after pairing, want empty", got)
	}
	// A double crash needs two restarts.
	d := NewSchedule().
		At(1*time.Second, Crash{Region: netsim.FRK}).
		At(2*time.Second, Crash{Region: netsim.FRK}).
		At(3*time.Second, Restart{Region: netsim.FRK})
	if got := d.UnmatchedCrashes(); len(got) != 1 || got[0] != netsim.FRK {
		t.Fatalf("double-crash UnmatchedCrashes = %v, want [%s]", got, netsim.FRK)
	}
}

// TestRandomCrashRestartPairingSeedSweep: across many seeds and every
// track of every profile, each generated Crash has a matching Restart at or
// before the horizon — the recovery guarantee experiments rely on.
func TestRandomCrashRestartPairingSeedSweep(t *testing.T) {
	var profiles []Profile
	for _, name := range ProfileNames() {
		profs, err := ProfilesByName(name, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, profs...)
	}
	crashes := 0
	for seed := int64(0); seed < 200; seed++ {
		for _, p := range profiles {
			s := Random(seed, p)
			if un := s.UnmatchedCrashes(); len(un) != 0 {
				t.Fatalf("seed %d profile %s: permanent crashes %v", seed, p.Name, un)
			}
			for _, te := range s.Events() {
				switch te.Event.(type) {
				case Crash:
					crashes++
				case Restart:
					if te.At > p.Horizon {
						t.Fatalf("seed %d profile %s: restart at %v past horizon %v",
							seed, p.Name, te.At, p.Horizon)
					}
				}
			}
		}
	}
	if crashes == 0 {
		t.Fatal("seed sweep generated no crashes at all — the pairing guarantee was never exercised")
	}
}

// TestDownTracksCrashesThroughSubscribe: a subscriber reading Down after
// every transition sees a region's liveness — a second overlapping Crash
// keeps it down until the last Restart, partitions and other regions'
// crashes leave it alone, and the final Quiesce restarts everything.
func TestDownTracksCrashesThroughSubscribe(t *testing.T) {
	_, _, inj := newFabric(t)
	var seen []bool // VRG's Down after each transition
	inj.Subscribe(func(Transition) { seen = append(seen, inj.Down(netsim.VRG)) })
	step := func(ev Event, want bool) {
		t.Helper()
		inj.Apply(ev)
		if got := seen[len(seen)-1]; got != want {
			t.Fatalf("after %v: Down(VRG) = %v, want %v", ev, got, want)
		}
	}

	step(Crash{Region: netsim.VRG}, true)
	step(Crash{Region: netsim.VRG}, true) // overlapping crash
	step(Restart{Region: netsim.VRG}, true)
	step(Restart{Region: netsim.VRG}, false)
	// Partitions touch reachability, not region liveness.
	step(Partition{Groups: [][]netsim.Region{{netsim.VRG}, {netsim.FRK, netsim.IRL}}}, false)
	step(Heal{}, false)
	step(Crash{Region: netsim.FRK}, false)
	step(Crash{Region: netsim.VRG}, true)
	inj.Quiesce() // clears all faults: VRG comes back up
	if seen[len(seen)-1] || inj.Down(netsim.FRK) {
		t.Fatal("Quiesce left a region down")
	}
	if len(seen) != 9 {
		t.Fatalf("subscriber ran %d times, want once per transition (9)", len(seen))
	}
}

// TestReachableAndQuiesced: the public reachability predicate composes
// crashes and partitions, and Transition.Quiesced marks the final
// transition for subscribers that must stand down periodic machinery.
func TestReachableAndQuiesced(t *testing.T) {
	_, _, inj := newFabric(t)
	if !inj.Reachable(netsim.FRK, netsim.VRG) {
		t.Fatal("healthy fabric unreachable")
	}
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.IRL}, {netsim.VRG}}})
	if inj.Reachable(netsim.FRK, netsim.VRG) || !inj.Reachable(netsim.FRK, netsim.IRL) {
		t.Fatal("partition not reflected in Reachable")
	}
	inj.Apply(Heal{})
	inj.Apply(Crash{Region: netsim.IRL})
	if inj.Reachable(netsim.FRK, netsim.IRL) {
		t.Fatal("crashed endpoint reachable")
	}

	var quiesced, transitions int
	inj.Subscribe(func(tr Transition) {
		transitions++
		if tr.Quiesced() {
			quiesced++
		}
	})
	inj.Apply(Restart{Region: netsim.IRL})
	inj.Quiesce()
	if transitions != 2 || quiesced != 1 {
		t.Fatalf("transitions=%d quiesced=%d, want 2/1", transitions, quiesced)
	}
}
