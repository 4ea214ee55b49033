package faults

import (
	"fmt"
	randv2 "math/rand/v2"
	"sort"
	"strings"
	"testing"

	"correctables/internal/netsim"
)

// refInjector is the partition and crash state as the injector once kept
// it: every active partition's grouping map, and their common refinement
// rebuilt on every change (a region's merged group is the tuple of its
// group ids across the partitions, with regions no partition names in the
// all-zero tuple). It is the reference the injector, which asks each
// active partition directly, is differential-tested against.
type refInjector struct {
	parts []refPart
	group map[netsim.Region]int
	down  map[netsim.Region]int
}

type refPart struct {
	id       int
	grouping map[netsim.Region]int
}

func (r *refInjector) apply(ev Event) {
	switch ev := ev.(type) {
	case Partition:
		grouping := make(map[netsim.Region]int)
		for gi, g := range ev.Groups {
			for _, x := range g {
				grouping[x] = gi
			}
		}
		r.parts = append(r.parts, refPart{id: ev.ID, grouping: grouping})
	case Heal:
		switch {
		case ev.ID != 0:
			for j, p := range r.parts {
				if p.id == ev.ID {
					r.parts = append(r.parts[:j:j], r.parts[j+1:]...)
					break
				}
			}
		case len(r.parts) > 0:
			r.parts = r.parts[1:]
		}
	case Crash:
		r.down[ev.Region]++
	case Restart:
		if r.down[ev.Region] > 0 {
			r.down[ev.Region]--
		}
	}
	r.rebuild()
}

func (r *refInjector) rebuild() {
	switch len(r.parts) {
	case 0:
		r.group = nil
		return
	case 1:
		r.group = r.parts[0].grouping
		return
	}
	named := make(map[netsim.Region]bool)
	for _, p := range r.parts {
		for x := range p.grouping {
			named[x] = true
		}
	}
	regions := make([]netsim.Region, 0, len(named))
	for x := range named {
		regions = append(regions, x)
	}
	sort.Slice(regions, func(a, b int) bool { return regions[a] < regions[b] })
	ids := map[string]int{strings.Repeat("0,", len(r.parts)): 0}
	r.group = make(map[netsim.Region]int, len(regions))
	for _, x := range regions {
		var key strings.Builder
		for _, p := range r.parts {
			fmt.Fprintf(&key, "%d,", p.grouping[x])
		}
		id, ok := ids[key.String()]
		if !ok {
			id = len(ids)
			ids[key.String()] = id
		}
		r.group[x] = id
	}
}

func (r *refInjector) passable(a, b netsim.Region) bool {
	return r.down[a] == 0 && r.down[b] == 0 && r.group[a] == r.group[b]
}

// randomPartition splits a random subset of regions into up to three
// groups; the regions left out ride in group 0. Now and then a region is
// named twice, and the last group naming it wins.
func randomPartition(rng *randv2.Rand, regions []netsim.Region) [][]netsim.Region {
	groups := make([][]netsim.Region, 1+rng.IntN(3))
	for _, x := range regions {
		if rng.IntN(4) == 0 {
			continue
		}
		gi := rng.IntN(len(groups))
		groups[gi] = append(groups[gi], x)
		if rng.IntN(10) == 0 {
			groups[(gi+1)%len(groups)] = append(groups[(gi+1)%len(groups)], x)
		}
	}
	return groups
}

// TestInjectorMatchesRefinement drives random overlapping partitions,
// tagged and untagged heals (some matching nothing), crashes and restarts
// over 3 and 5 regions, and after every transition requires Reachable and
// the Intercept verdict of every ordered pair to be the reference's.
func TestInjectorMatchesRefinement(t *testing.T) {
	all := []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE}
	for _, n := range []int{3, 5} {
		regions := all[:n]
		for seed := uint64(1); seed <= 100; seed++ {
			rng := randv2.New(randv2.NewPCG(seed, uint64(n)))
			_, _, inj := newFabric(t)
			ref := &refInjector{down: make(map[netsim.Region]int)}
			var tagged []int
			nextID := 0
			for step := 0; step < 60; step++ {
				var ev Event
				switch w := rng.IntN(10); {
				case w < 3:
					p := Partition{Groups: randomPartition(rng, regions)}
					if rng.IntN(2) == 0 {
						nextID++
						p.ID = nextID
						tagged = append(tagged, nextID)
					}
					ev = p
				case w < 5 && len(tagged) > 0:
					j := rng.IntN(len(tagged))
					ev = Heal{ID: tagged[j]}
					tagged = append(tagged[:j], tagged[j+1:]...)
				case w < 6:
					ev = Heal{ID: rng.IntN(3) * (nextID + 1)} // untagged, or an ID nothing carries
				case w < 8:
					ev = Crash{Region: regions[rng.IntN(n)]}
				default:
					ev = Restart{Region: regions[rng.IntN(n)]}
				}
				inj.Apply(ev)
				ref.apply(ev)
				for _, a := range regions {
					for _, b := range regions {
						want := ref.passable(a, b)
						if got := inj.Reachable(a, b); got != want {
							t.Fatalf("%d regions, seed %d, step %d (%s): Reachable(%s, %s) = %v, reference %v",
								n, seed, step, ev, a, b, got, want)
						}
						wantV := netsim.VerdictDeliver
						if !want {
							wantV = netsim.VerdictStall
						}
						if v, _ := inj.Intercept(a, b, "test"); v != wantV {
							t.Fatalf("%d regions, seed %d, step %d (%s): Intercept(%s, %s) = %v, reference %v",
								n, seed, step, ev, a, b, v, wantV)
						}
					}
				}
			}
		}
	}
}
