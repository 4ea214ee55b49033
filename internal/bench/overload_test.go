package bench

import (
	"bytes"
	"testing"
)

// TestOverloadMetastableEscape is the overload gate: the same burst that
// leaves goodput collapsed for the whole post-burst window without
// shedding (the metastable state) must drain and recover with the
// admission controller on — while the measured sessions' history stays
// clean through the degraded phase, and the whole experiment replays
// byte-identically per seed.
func TestOverloadMetastableEscape(t *testing.T) {
	run := func() (*OverloadResult, []byte) {
		res, err := Overload(Config{Quick: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		js, err := marshalReport(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, js
	}
	res, js := run()
	t.Logf("\n%s", res.Format())
	if len(res.Modes) != 2 {
		t.Fatalf("modes = %d, want shedding-off and shedding-on", len(res.Modes))
	}
	off, on := res.Modes[0], res.Modes[1]
	if off.Shedding || !on.Shedding {
		t.Fatalf("mode order wrong: %q then %q", off.Mode, on.Mode)
	}

	// The metastable state: the storm sustains itself after the burst ends.
	if off.BaselineGoodput <= 0 {
		t.Fatal("shedding-off baseline produced no goodput")
	}
	if off.PostBurstGoodputPct >= 50 {
		t.Errorf("shedding-off post-burst goodput = %.0f%% of baseline, want < 50%% (no metastable collapse?)",
			off.PostBurstGoodputPct)
	}
	// The escape: admission control + degrade-to-preliminary breaks the
	// feedback loop and the recovered phase returns to baseline.
	if on.RecoveredGoodputPct < 90 {
		t.Errorf("shedding-on recovered goodput = %.0f%% of baseline, want >= 90%%",
			on.RecoveredGoodputPct)
	}
	var rejected, shed int64
	for _, r := range on.Rows {
		rejected += r.Rejected
		shed += r.Shed
	}
	if rejected == 0 {
		t.Error("shedding-on run rejected nothing: the admission controller never engaged")
	}
	if shed == 0 {
		t.Error("shedding-on run shed nothing to the preliminary level: degrade mode never engaged")
	}
	degraded := int64(0)
	for _, r := range on.Rows {
		degraded += r.Degraded
	}
	if degraded == 0 {
		t.Error("no completion was served degraded: weak views never reached clients")
	}

	// Session guarantees (incl. cross-object WFR) hold in both modes, storm
	// and degraded phases included.
	for _, m := range res.Modes {
		if m.Check == nil {
			t.Fatalf("%s: missing history check", m.Mode)
		}
		if n := m.Check.Violations(); n != 0 {
			t.Errorf("%s: %d history violations:\n%v", m.Mode, n, m.Check.SessionViolations)
		}
		if m.Check.Ops == 0 {
			t.Errorf("%s: recorded history is empty", m.Mode)
		}
	}

	// Same seed, byte-identical output — the replay witness.
	_, js2 := run()
	if !bytes.Equal(js, js2) {
		t.Error("same-seed replay produced different BENCH_overload.json bytes")
	}
}
