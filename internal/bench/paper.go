package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"correctables/internal/ycsb"
)

// Claim is one ledger row: a number the paper states, the range of the
// points this run measures for it (rounded to 0.1), whether every point lies
// in the inclusive tolerance, and why a red row is red.
type Claim struct {
	Figure    int        `json:"figure"`
	Claim     string     `json:"claim"`
	Paper     string     `json:"paper"`
	Low       float64    `json:"reproduced_low"`
	High      float64    `json:"reproduced_high"`
	Tolerance [2]float64 `json:"tolerance"`
	Pass      bool       `json:"pass"`
	Reason    string     `json:"reason,omitempty"`
}

// PaperResult is the claim ledger read off the seven figure drivers; it
// marshals (the ledger only) to BENCH_paper.json.
type PaperResult struct {
	Seed   int64   `json:"seed"`
	Quick  bool    `json:"quick"`
	Claims []Claim `json:"claims"`

	tables string // the seven figures' printed tables, a blank line apart
	untraced
}

// Violations is zero: a red row is a finding, not a consistency violation.
func (*PaperResult) Violations() int { return 0 }

// claim builds a ledger row from its measured points; cause, when set,
// explains a red row beyond its numbers.
func claim(fig int, text, paper string, lo, hi float64, cause string, points ...float64) Claim {
	c := Claim{Figure: fig, Claim: text, Paper: paper, Tolerance: [2]float64{lo, hi},
		Low: math.Inf(1), High: math.Inf(-1)}
	for _, p := range points {
		p = math.Round(p*10) / 10
		c.Low, c.High = min(c.Low, p), max(c.High, p)
	}
	if c.Pass = lo <= c.Low && c.High <= hi; !c.Pass {
		c.Reason = strings.TrimSuffix(fmt.Sprintf("%s outside [%g, %g]; %s", c.reproduced(), lo, hi, cause), "; ")
	}
	return c
}

func (c Claim) reproduced() string {
	if c.Low == c.High {
		return fmt.Sprintf("%g", c.Low)
	}
	return fmt.Sprintf("%g…%g", c.Low, c.High)
}

// pct is 100 * (base - x) / base: how much x falls short of base.
func pct(base, x float64) float64 { return 100 * (base - x) / base }

// Paper runs the seven figure drivers (Figs 5, 6, 7+8, 9, 10, 11, 12) once
// and reads the paper's numbered claims for Figs 6, 7, 8, 11 and 12 off
// their rows (PAPER.md states each claim).
func Paper(cfg Config) *PaperResult {
	fig5, fig6 := Fig5(cfg), Fig6(cfg)
	fig7, fig8 := Fig8(cfg)
	fig9, fig10, fig11 := Fig9(cfg), Fig10(cfg), Fig11(cfg)
	points, summaries := Fig12(cfg)
	res := &PaperResult{Seed: cfg.Seed, Quick: cfg.Quick,
		tables: strings.Join([]string{FormatFig5(fig5), FormatFig6(fig6), FormatFig7(fig7) + FormatFig8(fig8),
			FormatFig9(fig9), FormatFig10(fig10), FormatFig11(fig11), FormatFig12(points, summaries)}, "\n")}

	// Fig 6 at the top thread count, which is a peak only if CC2's attained
	// throughput stopped rising there (a knee). Rows come four per
	// (workload, threads): C1, C2, CC2 preliminary, CC2 final.
	top := fig6[len(fig6)-1].Threads
	var tax []float64
	rise := 0.0
	for i, r := range fig6 {
		if r.System == "CC2 final" && r.Threads == top {
			tax = append(tax, pct(fig6[i-2].Throughput, r.Throughput))
			rise = max(rise, r.Throughput/fig6[i-4].Throughput)
		}
	}
	peak := claim(6, "CC2-vs-C2 throughput tax at the top thread count, A/B/C (%)", "~6% of peak", 3, 9, "", tax...)
	if rise > 1.1 {
		peak.Pass, peak.Reason = false, fmt.Sprintf("no knee: CC2's throughput still rose %.2fx over the last thread step, so the peak is undefined (item 16)", rise)
	}
	// Fig 7 at the highest contention (rows ascend in threads); Fig 8 at
	// every thread count, B over both distributions.
	div := map[string]float64{}
	for _, r := range fig7 {
		div[fmt.Sprint(r.Workload, r.Distribution)] = r.DivergencePct
	}
	over := map[string][]float64{}
	for _, r := range fig8 {
		if k := r.System + " " + r.Workload; r.Workload == "B" || r.Distribution == ycsb.DistLatest {
			over[k] = append(over[k], r.OverheadPct)
		}
	}
	const item20 = "updates carry the whole 1 KiB record and a confirmation 24 B (item 20)"
	// Fig 11: C2 and CC2 rows alternate per (app, workload, threads).
	var adsCut, misspec, tputCost []float64
	for i := 0; i+1 < len(fig11); i += 2 {
		base, spec := fig11[i], fig11[i+1]
		if base.App == "ads" {
			adsCut = append(adsCut, pct(float64(base.Latency), float64(spec.Latency)))
		}
		misspec = append(misspec, spec.MisspeculationPct)
		tputCost = append(tputCost, pct(base.Throughput, spec.Throughput))
	}
	czk := summaries[0] // CZK's summary precedes ZK's
	res.Claims = []Claim{peak,
		claim(7, "A-Latest divergence (%)", "up to ~25%", 20, 30, "", div["Alatest"]),
		claim(7, "B-Zipfian divergence (%)", "a few percent or less", 0, 5, "", div["Bzipfian"]),
		claim(7, "A-Zipfian divergence (%)", "a few percent or less", 0, 5, "unconfirmed: past the read plateau, probably queueing lag rather than fresh keys (item 3)", div["Azipfian"]),
		claim(8, "CC2 overhead over C1, A-Latest (%)", "+77%", 67, 87, item20, over["CC2 A"]...),
		claim(8, "CC2 overhead over C1, B (%)", "+90%", 80, 100, item20, over["CC2 B"]...),
		claim(8, "*CC2 overhead over C1, A-Latest (%)", "+27%", 17, 37, item20, over["*CC2 A"]...),
		claim(8, "*CC2 overhead over C1, B (%)", "+15%", 5, 25, item20, over["*CC2 B"]...),
		claim(11, "largest ads latency cut (%)", "~40%", 30, 50, "", slices.Max(adsCut)),
		claim(11, "misspeculation (%)", "< 1%", 0.1, 1, "topological: no read misspeculates behind a single coordinator (item 12)", slices.Max(misspec)),
		claim(11, "CC2-vs-C2 throughput cost (%)", "~6%", 3, 9, "closed loop, never saturated: speculation shortens each operation, so CC2 completes more", tputCost...),
		claim(12, "CZK tickets sold at preliminary latency (%)", "most", 50, 100, "", 100*float64(czk.FastCount)/float64(czk.FastCount+czk.SlowCount)),
		claim(12, "revoked preliminary confirmations", "2 on average, 6 at most", 1, 6,
			"structural: closed-loop retailers keep at most four dequeues in flight against a threshold of 20 (item 12)", float64(czk.Revoked)),
	}
	return res
}

// Format prints the seven figure tables as their own experiments do, then
// the ledger.
func (res *PaperResult) Format() string {
	out := make([][]string, len(res.Claims))
	for i, c := range res.Claims {
		out[i] = []string{fmt.Sprint(c.Figure), c.Claim, c.Paper, c.reproduced(),
			fmt.Sprintf("[%g, %g]", c.Tolerance[0], c.Tolerance[1]), fmt.Sprint(c.Pass), c.Reason}
	}
	return res.tables + "\n" + table("Claim ledger: the paper's numbers against this run",
		[]string{"fig", "claim", "paper", "reproduced", "tolerance", "pass", "reason"}, out)
}
