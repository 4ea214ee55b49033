package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/netsim"
)

// minimalRow is one phase of the minimal experiment.
type minimalRow struct {
	phase                 string
	reads, prelims        int64
	finalAvailPct         float64
	prelimMean, finalMean time.Duration
	dropped               int64
}

// minimalExperiment is README "Anatomy of an experiment" as code: a
// complete scenario experiment on world — two phases, one fault, a
// closed-loop measured population and a checked session population — in
// under 60 lines. New experiments start as a copy of this function.
func minimalExperiment(cfg Config) (rows []minimalRow, check *CheckReport) {
	unit := time.Second
	phases := []faults.Phase{
		{Name: "healthy", Start: 0, End: 2 * unit},
		{Name: "partitioned", Start: 2 * unit, End: 4 * unit},
	}
	// Fabric: clock + transport + the fault schedule, then the substrate.
	sched := faults.NewSchedule().At(2*unit, faults.Partition{Groups: [][]netsim.Region{
		{netsim.FRK, netsim.IRL}, {netsim.VRG},
	}})
	w := newWorld(cfg, sched, 4*unit)
	cluster := w.newCassandra(cfg, cassandraOpts{correctable: true, opTimeout: unit / 2})
	probe := w.probePhases(phases, nil)

	// Populations: closed-loop ICG readers at quorum 3 (the final needs the
	// severed region, the preliminary does not), and recorded sessions.
	client := cassandra.NewClient(cluster, netsim.IRL, netsim.FRK)
	var ops []opRecord
	w.loop(cfg.Seed+1, 0, func(rng *rand.Rand) {
		op := opRecord{start: w.clock.Now()}
		op.err = client.Read(fmt.Sprintf("k-%d", rng.Intn(8)), 3, true, func(v cassandra.ReadView) {
			if v.Final {
				op.final = w.clock.Now() - op.start
			} else {
				op.hasPrelim, op.prelim = true, w.clock.Now()-op.start
			}
		})
		op.end = w.clock.Now()
		ops = append(ops, op)
	})
	rec := history.NewRecorder()
	w.sessions(rec, sessionMix{
		n: 2, label: "sess-%d",
		binding: func(i int) binding.Binding {
			cc := cassandra.NewClient(cluster, netsim.IRL, alternate(i, netsim.FRK, netsim.IRL))
			return cassandra.NewBinding(cc, cassandra.BindingConfig{StrongQuorum: 3})
		},
		seed: func(i int) int64 { return cfg.Seed + 100 + int64(i) },
		key:  func(k int) string { return fmt.Sprintf("chk-%d", k) }, keys: 4,
		reads: 0.5, value: func(*rand.Rand) []byte { return []byte("v") }, pace: unit / 10,
	})

	// Finish, then fold the records into one row per phase, then check.
	w.run()
	for i, ph := range phases {
		st := newViewStats()
		for _, op := range ops {
			if phaseOf(phases, op) == i {
				st.add(op)
			}
		}
		rows = append(rows, minimalRow{ph.Name, st.ops, st.prelims, st.availabilityPct(),
			st.prelim.Mean(), st.final.Mean(), probe.during(i).dropped})
	}
	return rows, buildCheckReport(rec, 2, modelRegisters)
}

// TestWorldMinimalExperiment: the minimal experiment replays byte for byte
// from its seed, its checked population verifies clean, and it shows the
// paper's asymmetry — the point of writing experiments at all.
func TestWorldMinimalExperiment(t *testing.T) {
	rows, check := minimalExperiment(Config{Seed: 42})
	again, checkAgain := minimalExperiment(Config{Seed: 42})
	if !reflect.DeepEqual(rows, again) || !reflect.DeepEqual(check, checkAgain) {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v\n%+v\n%+v", rows, again, check, checkAgain)
	}
	t.Logf("%+v; check: %d ops, digest %.12s", rows, check.Ops, check.HistoryDigest)
	if check.Ops == 0 || check.Violations() != 0 || len(check.Inconclusive) != 0 {
		t.Fatalf("check report not clean: %+v", check)
	}
	if other, _ := minimalExperiment(Config{Seed: 43}); reflect.DeepEqual(rows, other) {
		t.Fatal("a different seed produced identical rows")
	}
	healthy, cut := rows[0], rows[1]
	if healthy.finalAvailPct != 100 || cut.finalAvailPct >= 100 || cut.prelims == 0 {
		t.Fatalf("asymmetry missing: healthy %+v, partitioned %+v", healthy, cut)
	}
}
