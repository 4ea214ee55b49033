package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"correctables/internal/ycsb"
)

// quickCfg runs every driver in its reduced mode at a fast scale. The
// assertions below check the *shapes* the paper reports, not absolute
// numbers.
func quickCfg() Config { return Config{Seed: 42, Quick: true} }

// quickPaper is Paper(quickCfg()), run once for the tests that read its
// claim ledger.
var quickPaper = sync.OnceValue(func() *PaperResult { return Paper(quickCfg()) })

// ledgerRow returns the quick ledger's row for a claim.
func ledgerRow(t *testing.T, claim string) Claim {
	t.Helper()
	for _, c := range quickPaper().Claims {
		if c.Claim == claim {
			return c
		}
	}
	t.Fatalf("claim %q missing from the ledger", claim)
	return Claim{}
}

func fig5Row(t *testing.T, rows []Fig5Row, system string) Fig5Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system {
			return r
		}
	}
	t.Fatalf("system %q missing from fig5 rows", system)
	return Fig5Row{}
}

func TestFig5Shapes(t *testing.T) {
	rows := Fig5(quickCfg())
	if len(rows) != 7 {
		t.Fatalf("fig5 rows = %d, want 7", len(rows))
	}
	c1 := fig5Row(t, rows, "C1")
	c2 := fig5Row(t, rows, "C2")
	c3 := fig5Row(t, rows, "C3")
	cc2p := fig5Row(t, rows, "CC2 preliminary")
	cc2f := fig5Row(t, rows, "CC2 final")
	cc3p := fig5Row(t, rows, "CC3 preliminary")
	cc3f := fig5Row(t, rows, "CC3 final")

	// Preliminary views follow C1; final views follow C2/C3 (paper §6.2.1).
	within := func(a, b time.Duration, tol float64) bool {
		d := float64(a - b)
		if d < 0 {
			d = -d
		}
		return d <= tol*float64(b)
	}
	if !within(cc2p.Avg, c1.Avg, 0.5) || !within(cc3p.Avg, c1.Avg, 0.5) {
		t.Errorf("preliminary avgs (%v, %v) should track C1 (%v)", cc2p.Avg, cc3p.Avg, c1.Avg)
	}
	if !within(cc2f.Avg, c2.Avg, 0.5) {
		t.Errorf("CC2 final (%v) should track C2 (%v)", cc2f.Avg, c2.Avg)
	}
	if !within(cc3f.Avg, c3.Avg, 0.5) {
		t.Errorf("CC3 final (%v) should track C3 (%v)", cc3f.Avg, c3.Avg)
	}
	// Gap ordering: CC3's speculation window far exceeds CC2's.
	if cc3f.Avg-cc3p.Avg < 2*(cc2f.Avg-cc2p.Avg) {
		t.Errorf("CC3 gap (%v) should dwarf CC2 gap (%v)", cc3f.Avg-cc3p.Avg, cc2f.Avg-cc2p.Avg)
	}
	if s := FormatFig5(rows); !strings.Contains(s, "Figure 5") {
		t.Error("FormatFig5 missing title")
	}
}

func TestFig9Shapes(t *testing.T) {
	rows := Fig9(quickCfg())
	if len(rows) != 12 { // 4 placements x 3 series
		t.Fatalf("fig9 rows = %d, want 12", len(rows))
	}
	byKey := map[string]Fig9Row{}
	for _, r := range rows {
		byKey[r.Placement+"|"+r.Series] = r
	}
	for _, pc := range fig9Configs() {
		prelim := byKey[pc.name+"|CZK preliminary"]
		final := byKey[pc.name+"|CZK final"]
		zkRow := byKey[pc.name+"|ZK"]
		if prelim.Avg >= final.Avg {
			t.Errorf("%s: preliminary (%v) not faster than final (%v)", pc.name, prelim.Avg, final.Avg)
		}
		// The final view costs about what vanilla ZK costs (within 50%).
		ratio := float64(final.Avg) / float64(zkRow.Avg)
		if ratio < 0.5 || ratio > 1.6 {
			t.Errorf("%s: CZK final/ZK ratio = %.2f", pc.name, ratio)
		}
	}
	// The third placement (follower IRL, leader VRG) has the biggest gap.
	gap := func(name string) time.Duration {
		return byKey[name+"|CZK final"].Avg - byKey[name+"|CZK preliminary"].Avg
	}
	if gap("Follower (IRL), leader VRG") <= gap("Leader (IRL)") {
		t.Errorf("distant-leader gap (%v) should exceed local-leader gap (%v)",
			gap("Follower (IRL), leader VRG"), gap("Leader (IRL)"))
	}
	if s := FormatFig9(rows); !strings.Contains(s, "Figure 9") {
		t.Error("FormatFig9 missing title")
	}
}

func TestFig12Shapes(t *testing.T) {
	points, summaries := Fig12(quickCfg())
	if len(summaries) != 2 {
		t.Fatalf("fig12 summaries = %d", len(summaries))
	}
	var czk, zkSum Fig12Summary
	for _, s := range summaries {
		if s.System == "CZK" {
			czk = s
		} else {
			zkSum = s
		}
	}
	if fast := ledgerRow(t, "CZK tickets sold at preliminary latency (%)").High; fast <= 0 || fast >= 100 {
		t.Fatalf("CZK regimes: %.1f%% fast, want both regimes (fast=%d slow=%d)", fast, czk.FastCount, czk.SlowCount)
	}
	if czk.FastAvg >= czk.SlowAvg {
		t.Errorf("CZK fast avg (%v) not below slow avg (%v)", czk.FastAvg, czk.SlowAvg)
	}
	if zkSum.FastCount != 0 {
		t.Errorf("ZK should have no preliminary-confirmed purchases, got %d", zkSum.FastCount)
	}
	// ZK sells every ticket at coordination latency; CZK's fast regime is
	// far below it.
	if czk.FastAvg*2 >= zkSum.SlowAvg {
		t.Errorf("CZK fast (%v) should be well below ZK (%v)", czk.FastAvg, zkSum.SlowAvg)
	}
	if s := FormatFig12(points, summaries); !strings.Contains(s, "Figure 12") {
		t.Error("FormatFig12 missing title")
	}
}

func TestFig10Shapes(t *testing.T) {
	rows := Fig10(quickCfg())
	get := func(system string, size, clients int) Fig10Row {
		for _, r := range rows {
			if r.System == system && r.QueueSize == size && r.Clients == clients {
				return r
			}
		}
		t.Fatalf("row %s/%d/%d missing", system, size, clients)
		return Fig10Row{}
	}
	// ZK cost grows with queue size; CZK is independent of it.
	zkSmall, zkLarge := get("ZK", 500, 1), get("ZK", 1000, 1)
	if zkLarge.KBPerOp <= zkSmall.KBPerOp*1.3 {
		t.Errorf("ZK kB/op should grow with queue size: %0.2f -> %0.2f", zkSmall.KBPerOp, zkLarge.KBPerOp)
	}
	czkSmall, czkLarge := get("CZK", 500, 1), get("CZK", 1000, 1)
	if diff := czkLarge.KBPerOp - czkSmall.KBPerOp; diff > 0.1 || diff < -0.1 {
		t.Errorf("CZK kB/op should be size-independent: %0.2f vs %0.2f", czkSmall.KBPerOp, czkLarge.KBPerOp)
	}
	// ZK costs much more than CZK at the same point (paper: -71%..-81%).
	if czkSmall.KBPerOp >= zkSmall.KBPerOp*0.6 {
		t.Errorf("CZK (%0.2f) should cost well under ZK (%0.2f)", czkSmall.KBPerOp, zkSmall.KBPerOp)
	}
	if s := FormatFig10(rows); !strings.Contains(s, "Figure 10") {
		t.Error("FormatFig10 missing title")
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("load experiment; skipped in -short")
	}
	rows, _ := Fig8(quickCfg())
	if len(rows) == 0 {
		t.Fatal("no fig7 rows")
	}
	// Pick the highest-contention point of each config.
	best := map[string]Fig7Row{}
	for _, r := range rows {
		k := r.Workload + string(r.Distribution)
		if cur, ok := best[k]; !ok || r.Threads > cur.Threads {
			best[k] = r
		}
	}
	if best["A"+string(ycsb.DistLatest)].Reads == 0 {
		t.Fatal("A-Latest measured no reads")
	}
	// A-Latest diverges substantially; B-Zipfian barely (paper Fig 7). The
	// ledger's rows are the highest-contention points.
	aLatest := ledgerRow(t, "A-Latest divergence (%)").High
	bZipf := ledgerRow(t, "B-Zipfian divergence (%)").High
	if aLatest < 1 {
		t.Errorf("A-Latest divergence = %.2f%%, want clearly nonzero", aLatest)
	}
	if bZipf >= aLatest {
		t.Errorf("B-Zipfian (%.2f%%) should diverge less than A-Latest (%.2f%%)", bZipf, aLatest)
	}
	if s := FormatFig7(rows); !strings.Contains(s, "Figure 7") {
		t.Error("FormatFig7 missing title")
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("load experiment; skipped in -short")
	}
	div, rows := Fig8(quickCfg())
	byKey := map[string]Fig8Row{}
	for _, r := range rows {
		byKey[fmt.Sprint(r.Workload, r.Distribution, r.Threads, r.System)] = r
	}
	if len(rows) != 3*len(div) {
		t.Fatalf("%d Fig 8 rows for %d Fig 7 cells, want three systems per cell", len(rows), len(div))
	}
	for _, d := range div {
		cell := fmt.Sprint(d.Workload, d.Distribution, d.Threads)
		cc2, opt := byKey[cell+"CC2"], byKey[cell+"*CC2"]
		// Message size never enters a delay, so the confirmation
		// optimization moves bytes, not events: both ICG worlds of a cell
		// diverge alike, and alike with Figure 7, which is read off CC2's.
		if opt.DivergencePct != cc2.DivergencePct || opt.Reads != cc2.Reads {
			t.Errorf("%s: *CC2 divergence %.2f%% over %d reads, CC2 %.2f%% over %d",
				cell, opt.DivergencePct, opt.Reads, cc2.DivergencePct, cc2.Reads)
		}
		if cc2.DivergencePct != d.DivergencePct || cc2.Reads != d.Reads {
			t.Errorf("%s: Fig 8 CC2 divergence %.2f%% over %d reads, Fig 7 %.2f%% over %d",
				cell, cc2.DivergencePct, cc2.Reads, d.DivergencePct, d.Reads)
		}
	}
	// A-Latest's overheads over C1, at every thread count (the ledger's
	// rows span them).
	cc2 := ledgerRow(t, "CC2 overhead over C1, A-Latest (%)")
	opt := ledgerRow(t, "*CC2 overhead over C1, A-Latest (%)")
	if cc2.Low <= 0 {
		t.Errorf("unoptimized CC2 (%+.1f%%) must cost more than C1", cc2.Low)
	}
	if opt.High >= cc2.Low {
		t.Errorf("confirmation opt (%+.1f%%) must cut CC2's cost (%+.1f%%)", opt.High, cc2.Low)
	}
	if opt.Low <= 0 {
		t.Errorf("*CC2 (%+.1f%%) must still cost more than C1", opt.Low)
	}
	if s := FormatFig8(rows); !strings.Contains(s, "Figure 8") {
		t.Error("FormatFig8 missing title")
	}
}

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("load experiment; skipped in -short")
	}
	rows := Fig6(quickCfg())
	byKey := map[string]Fig6Row{}
	for _, r := range rows {
		if r.Workload == "B" && r.Threads == 3 {
			byKey[r.System] = r
		}
	}
	c1, c2 := byKey["C1"], byKey["C2"]
	prelim, final := byKey["CC2 preliminary"], byKey["CC2 final"]
	if c1.Latency >= c2.Latency {
		t.Errorf("C1 latency (%v) should be below C2 (%v)", c1.Latency, c2.Latency)
	}
	if prelim.Latency >= final.Latency {
		t.Errorf("preliminary (%v) should beat final (%v)", prelim.Latency, final.Latency)
	}
	if prelim.Throughput != final.Throughput {
		t.Error("CC2 preliminary and final share the same run; throughput must match")
	}
	if s := FormatFig6(rows); !strings.Contains(s, "Figure 6") {
		t.Error("FormatFig6 missing title")
	}
}

func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("load experiment; skipped in -short")
	}
	rows := Fig11(quickCfg())
	var adsBase, adsSpec Fig11Row
	for _, r := range rows {
		if r.App == "ads" && r.Workload == "B" && r.Threads == 2 {
			if r.System == "C2" {
				adsBase = r
			} else {
				adsSpec = r
			}
		}
	}
	if adsBase.Latency == 0 || adsSpec.Latency == 0 {
		t.Fatal("missing ads rows")
	}
	if adsSpec.Latency >= adsBase.Latency {
		t.Errorf("speculation (%v) should beat baseline (%v)", adsSpec.Latency, adsBase.Latency)
	}
	if adsSpec.MisspeculationPct > 10 {
		t.Errorf("misspeculation = %.1f%%, want low", adsSpec.MisspeculationPct)
	}
	if s := FormatFig11(rows); !strings.Contains(s, "Figure 11") {
		t.Error("FormatFig11 missing title")
	}
}
