package bench

import (
	"fmt"
	"testing"
)

// TestSessionGuaranteesAcrossFaultCatalog is the satellite acceptance test
// for sessions + checking: across every named fault scenario, the checked
// session population's recorded history must verify clean — read-your-
// writes, monotonic reads, writes-follow-reads, and per-key register
// linearizability all hold (the session layer suppresses/retries what
// would violate them; timed-out ops are correctly treated as ambiguous) —
// and the same seed must reproduce the history byte for byte, so any
// future violation is a complete repro recipe.
func TestSessionGuaranteesAcrossFaultCatalog(t *testing.T) {
	scenarios := []string{"minority-partition", "split-brain", "flaky-wan", "rolling-crash"}
	for _, scen := range scenarios {
		scen := scen
		t.Run(scen, func(t *testing.T) {
			t.Parallel()
			run := func() *CheckReport {
				res, err := FaultStudy(Config{Seed: 42, Quick: true, Faults: scen})
				if err != nil {
					t.Fatal(err)
				}
				return res.Check
			}
			rep := run()
			if rep.Ops == 0 {
				t.Fatal("checked population recorded no operations")
			}
			if n := rep.Violations(); n != 0 {
				t.Errorf("%d violations under %s:", n, scen)
				for _, v := range append(rep.SessionViolations, rep.LinViolations...) {
					t.Errorf("  %s", v)
				}
			}
			if len(rep.Inconclusive) != 0 {
				t.Errorf("inconclusive linearizability keys: %v", rep.Inconclusive)
			}
			// Seed-replayable: the digest is over the full serialized
			// history (every op, view, token, timestamp).
			if rep2 := run(); rep2.HistoryDigest != rep.HistoryDigest {
				t.Errorf("history replay diverged: %s vs %s", rep.HistoryDigest, rep2.HistoryDigest)
			}
		})
	}
}

// TestEveryFaultExperimentChecks: verification is not an option. With
// nothing but a seed and Quick, the fault study, failover, both overload
// modes and every capacity cell carry a history check that recorded
// operations and found no violation.
func TestEveryFaultExperimentChecks(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	fs, err := FaultStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := Overload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]*CheckReport{"faultstudy": fs.Check, "failover": fo.Check}
	for _, m := range ov.Modes {
		checks["overload "+m.Mode] = m.Check
	}
	for _, r := range Capacity(cfg).Rows {
		checks[fmt.Sprintf("capacity shards=%d", r.Shards)] = r.Check
	}
	for name, c := range checks {
		switch {
		case c == nil:
			t.Errorf("%s: no history check", name)
		case c.Ops == 0:
			t.Errorf("%s: the checked population recorded no operations", name)
		case c.Violations() != 0:
			t.Errorf("%s: %d violations: %v %v", name, c.Violations(), c.SessionViolations, c.LinViolations)
		}
	}
}

// TestCheckReportDistinguishesSeeds guards the digest against being too
// weak to notice a different run.
func TestCheckReportDistinguishesSeeds(t *testing.T) {
	a, err := FaultStudy(Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultStudy(Config{Seed: 8, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Check.HistoryDigest == b.Check.HistoryDigest {
		t.Fatal("different seeds produced identical history digests")
	}
}

// TestFailoverAcrossSeedSweep folds the failover scenario into the fault
// catalog's regime: the same leader-kill drill, swept across seeds. Every
// seed must elect a replacement leader, keep serving preliminary views
// through the outage, verify a clean session history, and replay to the
// identical digest — so any seed that ever fails here is a self-contained
// repro recipe.
func TestFailoverAcrossSeedSweep(t *testing.T) {
	seeds := []int64{1, 7, 13, 42, 99, 2026, 31337, 424242}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func() *FailoverResult {
				res, err := Failover(Config{Seed: seed, Quick: true})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run()
			if res.NewLeader == "" || res.TimeToRecoveryMs <= 0 {
				t.Errorf("no recovery: leader %q, time-to-recovery %.1f ms",
					res.NewLeader, res.TimeToRecoveryMs)
			}
			if res.OutagePrelims == 0 {
				t.Error("no preliminary views served during the outage window")
			}
			rep := res.Check
			if rep.Ops == 0 {
				t.Fatal("checked population recorded no operations")
			}
			if n := rep.Violations(); n != 0 {
				t.Errorf("%d violations at seed %d:", n, seed)
				for _, v := range append(rep.SessionViolations, rep.LinViolations...) {
					t.Errorf("  %s", v)
				}
			}
			if len(rep.Inconclusive) != 0 {
				t.Errorf("inconclusive queue keys: %v", rep.Inconclusive)
			}
			if rep2 := run().Check; rep2.HistoryDigest != rep.HistoryDigest {
				t.Errorf("history replay diverged: %s vs %s", rep.HistoryDigest, rep2.HistoryDigest)
			}
		})
	}
}
