package bench

import (
	"bytes"
	"testing"
	"time"

	"correctables/internal/metrics"
	"correctables/internal/netsim"
)

// TestFailoverRecoveryBounded is the recovery acceptance gate: the failover
// experiment must elect a replacement leader within the election-timeout
// bound, keep preliminary views flowing (at flat latency) right through the
// outage, confine final unavailability to the fault window, pass the
// history checkers, and replay byte-identically from the seed.
func TestFailoverRecoveryBounded(t *testing.T) {
	cfg := Config{Quick: true, Seed: 42}
	res, err := Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unit := cfg.pickDur(2*time.Second, 300*time.Millisecond)

	// Recovery happened, exactly where the election machinery promises:
	// after the fault, within ~2x the election timeout (base timeout u/2
	// plus the follower stagger and a vote round).
	if res.TimeToRecoveryMs <= 0 {
		t.Fatalf("no election after the fault: %+v", res)
	}
	if bound := metrics.Ms(unit); res.TimeToRecoveryMs > bound {
		t.Errorf("time-to-recovery %.1fms exceeds the election bound %.1fms", res.TimeToRecoveryMs, bound)
	}
	if res.NewLeader == string(netsim.FRK) || res.NewLeader == "" {
		t.Errorf("new leader %q, want a majority-side region", res.NewLeader)
	}
	if res.Epoch == 0 {
		t.Error("election record carries no epoch")
	}

	// The paper's availability claim under failover: the service was
	// preliminary-only for a bounded window, not silent.
	if res.PrelimOnlyWindowMs <= 0 {
		t.Errorf("prelim-only window %.1fms, want positive", res.PrelimOnlyWindowMs)
	}
	if res.OutagePrelims == 0 {
		t.Error("no preliminary views delivered during the outage window")
	}

	rows := make(map[string]map[string]FailoverRow)
	for _, r := range res.Rows {
		if rows[r.Population] == nil {
			rows[r.Population] = make(map[string]FailoverRow)
		}
		rows[r.Population][r.Phase] = r
	}
	for _, pop := range []string{"majority", "minority"} {
		if len(rows[pop]) != 4 {
			t.Fatalf("%s has %d phase rows, want 4", pop, len(rows[pop]))
		}
		// Finals are fully available outside the fault: the healthy phase is
		// untouched, and failed ops are charged to the phase their timeout
		// fired in, so a clean phase asserts clean conditions.
		if pct := rows[pop]["healthy"].FinalAvailabilityPct; pct != 100 {
			t.Errorf("%s healthy availability %.1f%%, want 100%%", pop, pct)
		}
		// Preliminary latency stays flat across the failover: prelims ride
		// the local client<->contact link, which no phase perturbs.
		base := rows[pop]["healthy"].PrelimMeanMs
		if base <= 0 {
			t.Fatalf("%s healthy phase recorded no prelims", pop)
		}
		for phase, r := range rows[pop] {
			if r.Prelims == 0 {
				continue
			}
			if ratio := r.PrelimMeanMs / base; ratio < 0.75 || ratio > 1.25 {
				t.Errorf("%s %s prelim mean %.2fms vs healthy %.2fms: not flat", pop, phase, r.PrelimMeanMs, base)
			}
		}
	}
	// Majority finals recover with the election: only ops overlapping the
	// outage fail (their timeouts fire in the outage/elected windows), and
	// the rejoin phase is clean again.
	if e := rows["majority"]["healthy"].Errors + rows["majority"]["rejoin"].Errors; e != 0 {
		t.Errorf("majority lost %d finals outside the fault window", e)
	}
	if e := rows["majority"]["outage"].Errors + rows["majority"]["elected"].Errors; e == 0 {
		t.Error("majority lost no finals to the leader outage; the fault did not bite")
	}
	// The severed minority loses finals for the whole partition but keeps
	// its prelims; its healthy phase is clean.
	var minorityErrs int64
	for _, r := range rows["minority"] {
		minorityErrs += r.Errors
	}
	if minorityErrs == 0 {
		t.Error("minority lost no finals during the partition")
	}
	if rows["minority"]["outage"].Prelims+rows["minority"]["elected"].Prelims == 0 {
		t.Error("severed minority served no prelims during the partition")
	}

	// The checked session population verified clean across the failover.
	if res.Check.Ops == 0 {
		t.Error("checked population recorded no operations")
	}
	for _, v := range append(res.Check.SessionViolations, res.Check.LinViolations...) {
		t.Errorf("violation: %s", v)
	}

	// Same seed, byte-identical replay — including the history digest.
	res2, err := Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, err1 := marshalReport(res)
	j2, err2 := marshalReport(res2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("same-seed failover runs are not byte-identical")
	}
}
