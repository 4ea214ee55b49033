package bench

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/core"
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
	client := cassandraClient(cluster, netsim.IRL, netsim.FRK, 3)
	var ops []opRecord
	w.loop(cfg.Seed+1, 0, func(rng *rand.Rand) {
		ops = append(ops, timed(w.clock, w.clock.Now(), binding.Invoke[[]byte](context.Background(), client,
			binding.Get{Key: fmt.Sprintf("k-%d", rng.Intn(8))})))
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

// TestTimed: the record timed reads off a Correctable, for each shape an
// operation's view sequence can take. Latencies count from start, not from
// the clock's origin.
func TestTimed(t *testing.T) {
	const ms = time.Millisecond
	type step struct {
		at    time.Duration // after start
		value string
		final bool
		fail  error
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  opRecord // start and end relative to start
	}{
		{"no preliminary",
			[]step{{at: 30 * ms, value: "v", final: true}},
			opRecord{end: 30 * ms, Timing: core.Timing{HasFinal: true, Final: 30 * ms}}},
		{"confirmed preliminary",
			[]step{{at: 10 * ms, value: "v"}, {at: 30 * ms, value: "v", final: true}},
			opRecord{end: 30 * ms, Timing: core.Timing{HasPrelim: true, Prelim: 10 * ms, HasFinal: true, Final: 30 * ms}}},
		{"diverged preliminary",
			[]step{{at: 10 * ms, value: "old"}, {at: 30 * ms, value: "new", final: true}},
			opRecord{end: 30 * ms, Timing: core.Timing{HasPrelim: true, Prelim: 10 * ms, HasFinal: true, Final: 30 * ms, Diverged: true}}},
		{"preliminary then timeout",
			[]step{{at: 10 * ms, value: "v"}, {at: 50 * ms, fail: faults.ErrUnreachable}},
			opRecord{end: 50 * ms, err: faults.ErrUnreachable, Timing: core.Timing{HasPrelim: true, Prelim: 10 * ms}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := netsim.NewVirtualClock()
			defer clock.Drain()
			clock.Sleep(7 * ms)
			start := clock.Now()
			cor, ctrl := core.NewScheduled[[]byte](binding.SchedulerFor(clock), core.Levels{core.LevelWeak, core.LevelStrong})
			for _, s := range tc.steps {
				clock.RunAfter(s.at, func() {
					switch {
					case s.fail != nil:
						_ = ctrl.Fail(s.fail)
					case s.final:
						_ = ctrl.Close([]byte(s.value), core.LevelStrong)
					default:
						_ = ctrl.Update([]byte(s.value), core.LevelWeak)
					}
				})
			}
			got := timed(clock, start, cor)
			tc.want.start, tc.want.end = start, start+tc.want.end
			if got != tc.want {
				t.Errorf("timed = %+v, want %+v", got, tc.want)
			}
		})
	}
}
