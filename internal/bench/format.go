package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"correctables/internal/metrics"
)

// table renders rows with aligned columns.
func table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush()
	return b.String()
}

// FormatFig5 renders Figure 5's rows.
func FormatFig5(rows []Fig5Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Group, r.System,
			fmt.Sprintf("%.1f", metrics.Ms(r.Avg)), fmt.Sprintf("%.1f", metrics.Ms(r.P99))}
	}
	return table("Figure 5: single-request read latency in Cassandra (ms)",
		[]string{"group", "system", "avg", "p99"}, out)
}

// FormatFig6 renders Figure 6's rows.
func FormatFig6(rows []Fig6Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, r.System, fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.1f", metrics.Ms(r.Latency)), fmt.Sprintf("%.1f", metrics.Ms(r.P99))}
	}
	return table("Figure 6: YCSB latency vs throughput, Correctable Cassandra",
		[]string{"workload", "system", "threads", "ops/s", "avg ms", "p99 ms"}, out)
}

// FormatFig7 renders Figure 7's rows.
func FormatFig7(rows []Fig7Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, string(r.Distribution), fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.1f", r.DivergencePct), fmt.Sprintf("%d", r.Reads)}
	}
	return table("Figure 7: divergence of preliminary from final views (%)",
		[]string{"workload", "distribution", "threads", "divergence %", "reads"}, out)
}

// FormatFig8 renders Figure 8's rows.
func FormatFig8(rows []Fig8Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		div := "-" // C1 has no preliminary views
		if r.System != "C1" {
			div = fmt.Sprintf("%.1f", r.DivergencePct)
		}
		out[i] = []string{r.Workload, string(r.Distribution), fmt.Sprintf("%d", r.Threads), r.System,
			fmt.Sprintf("%.2f", r.KBPerOp), fmt.Sprintf("%+.0f%%", r.OverheadPct), div}
	}
	return table("Figure 8: client-link efficiency (kB/op)",
		[]string{"workload", "distribution", "threads", "system", "kB/op", "vs C1", "divergence %"}, out)
}

// FormatFig9 renders Figure 9's rows.
func FormatFig9(rows []Fig9Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Placement, r.Series,
			fmt.Sprintf("%.1f", metrics.Ms(r.Avg)), fmt.Sprintf("%.1f", metrics.Ms(r.P99))}
	}
	return table("Figure 9: enqueue latency, Correctable ZooKeeper vs ZooKeeper (ms)",
		[]string{"placement", "series", "avg", "p99"}, out)
}

// FormatFig10 renders Figure 10's rows.
func FormatFig10(rows []Fig10Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.System, fmt.Sprintf("%d", r.QueueSize), fmt.Sprintf("%d", r.Clients),
			fmt.Sprintf("%.2f", r.KBPerOp)}
	}
	return table("Figure 10: dequeue efficiency (kB/op)",
		[]string{"system", "queue size", "clients", "kB/op"}, out)
}

// FormatFig11 renders Figure 11's rows.
func FormatFig11(rows []Fig11Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.App, r.Workload, r.System, fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.0f", r.Throughput), fmt.Sprintf("%.1f", metrics.Ms(r.Latency)),
			fmt.Sprintf("%.1f", r.MisspeculationPct)}
	}
	return table("Figure 11: speculation case studies (ads, Twissandra)",
		[]string{"app", "workload", "system", "threads", "ops/s", "avg ms", "misspec %"}, out)
}

// formatDecomp renders a latency-decomposition table (model-ms of span
// time per category, clipped to each phase window). Empty when the run
// was untraced.
func formatDecomp(rows []PhaseDecomp) string {
	if len(rows) == 0 {
		return ""
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Phase,
			fmt.Sprintf("%.0f", r.OpMs), fmt.Sprintf("%.0f", r.AdmissionMs),
			fmt.Sprintf("%.0f", r.NetClientMs), fmt.Sprintf("%.0f", r.NetReplicaMs),
			fmt.Sprintf("%.0f", r.QueueMs), fmt.Sprintf("%.0f", r.ServerMs),
			fmt.Sprintf("%.0f", r.FlushMs), fmt.Sprintf("%.0f", r.QuorumMs),
			fmt.Sprintf("%.0f", r.HintMs), fmt.Sprintf("%.0f", r.ElectionMs)}
	}
	return table("latency decomposition (span-ms per category, per phase)",
		[]string{"phase", "op", "admit", "net cli", "net rep", "queue", "server",
			"flush", "quorum", "hint", "elect"},
		out)
}

// formatTransitions appends the applied fault-transition log (the replay
// record).
func formatTransitions(b *strings.Builder, transitions []string) {
	b.WriteString("fault transitions:\n")
	for _, tr := range transitions {
		fmt.Fprintf(b, "  %s\n", tr)
	}
}

// formatCheck appends a checked session population's verdict; linLabel
// names what the linearizability search covered.
func formatCheck(b *strings.Builder, c *CheckReport, seed int64, linLabel string) {
	fmt.Fprintf(b, "consistency check: %d session clients, %d ops, history sha256 %.12s…\n",
		c.Clients, c.Ops, c.HistoryDigest)
	if n := c.Violations(); n == 0 {
		b.WriteString("  session guarantees (RYW, monotonic reads, WFR): OK\n")
		fmt.Fprintf(b, "  %s linearizability: OK\n", linLabel)
	} else {
		fmt.Fprintf(b, "  %d VIOLATIONS (replay with -seed %d):\n", n, seed)
		formatViolations(b, c)
	}
	for _, k := range c.Inconclusive {
		fmt.Fprintf(b, "  inconclusive (configuration budget exhausted, or a segment of over 512 ops behind an ambiguous op): %s\n", k)
	}
}

// formatCheckLine appends the one-line verdict of a per-mode or per-cell
// check (violations listed underneath); okLabel names what passed.
func formatCheckLine(b *strings.Builder, c *CheckReport, seed int64, okLabel string) {
	if n := c.Violations(); n == 0 {
		fmt.Fprintf(b, " — %s: OK\n", okLabel)
	} else {
		fmt.Fprintf(b, " — %d VIOLATIONS (replay with -seed %d):\n", n, seed)
		formatViolations(b, c)
	}
}

func formatViolations(b *strings.Builder, c *CheckReport) {
	for _, v := range c.SessionViolations {
		fmt.Fprintf(b, "  %s\n", v)
	}
	for _, v := range c.LinViolations {
		fmt.Fprintf(b, "  %s\n", v)
	}
}

// Format renders the fault study's per-phase rows, the applied
// fault-transition log and the history check's verdict.
func (res *FaultStudyResult) Format() string {
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{r.Phase,
			fmt.Sprintf("%d", r.Reads), fmt.Sprintf("%d", r.ReadErrors),
			fmt.Sprintf("%.1f", r.PrelimMeanMs), fmt.Sprintf("%.1f", r.FinalMeanMs),
			fmt.Sprintf("%.1f", r.FinalP99Ms),
			fmt.Sprintf("%.0f", r.ReadAvailabilityPct),
			fmt.Sprintf("%.1f", r.DivergencePct),
			fmt.Sprintf("%d", r.DroppedMsgs), fmt.Sprintf("%d", r.HintedMsgs),
			fmt.Sprintf("%d", r.Rejected), fmt.Sprintf("%d", r.Shed), fmt.Sprintf("%d", r.Retried)}
	}
	var b strings.Builder
	b.WriteString(table(
		fmt.Sprintf("Fault study: weak vs strong views under %q (CC3, YCSB B)", res.Scenario),
		[]string{"phase", "reads", "errs", "prelim ms", "final ms", "final p99", "avail %", "div %", "dropped", "hinted", "rej", "shed", "retry"},
		out))
	b.WriteString(formatDecomp(res.Decomp))
	formatTransitions(&b, res.Transitions)
	formatCheck(&b, res.Check, res.Seed, "per-key register")
	return b.String()
}

// Format renders the failover experiment: the per-population phase table,
// the recovery summary, the fault-transition log and the history check's
// verdict.
func (res *FailoverResult) Format() string {
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{r.Population, r.Phase,
			fmt.Sprintf("%d", r.Ops), fmt.Sprintf("%d", r.Errors), fmt.Sprintf("%d", r.Prelims),
			fmt.Sprintf("%.1f", r.PrelimMeanMs), fmt.Sprintf("%.1f", r.FinalMeanMs),
			fmt.Sprintf("%.1f", r.FinalP99Ms),
			fmt.Sprintf("%.0f", r.FinalAvailabilityPct)}
	}
	var b strings.Builder
	b.WriteString(table("Failover: CZK leader partitioned mid-run (enqueue, prelim+final)",
		[]string{"population", "phase", "ops", "errs", "prelims", "prelim ms", "final ms", "final p99", "avail %"},
		out))
	b.WriteString(formatDecomp(res.Decomp))
	fmt.Fprintf(&b, "recovery: new leader %s (epoch %d) elected %.0fms after the fault (election timeout %.0fms)\n",
		res.NewLeader, res.Epoch, res.TimeToRecoveryMs, res.ElectionTimeoutMs)
	fmt.Fprintf(&b, "  prelim-only window: %.0fms (first post-fault commit at %.0fms); %d preliminary views served inside it\n",
		res.PrelimOnlyWindowMs, res.FirstFinalAfterFaultMs, res.OutagePrelims)
	formatTransitions(&b, res.Transitions)
	formatCheck(&b, res.Check, res.Seed, "per-queue")
	return b.String()
}

// FormatAblationLag renders the replication-lag ablation.
func FormatAblationLag(rows []AblationLagRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{fmt.Sprintf("%v", r.ReplicationDelay),
			fmt.Sprintf("%.1f", r.DivergencePct), fmt.Sprintf("%d", r.Reads)}
	}
	return table("Ablation: divergence vs replication lag (workload A-Latest)",
		[]string{"replication delay", "divergence %", "reads"}, out)
}

// FormatAblationFlush renders the preliminary-flushing cost ablation.
func FormatAblationFlush(rows []AblationFlushRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{fmt.Sprintf("%v", r.FlushCost),
			fmt.Sprintf("%.0f", r.Throughput), fmt.Sprintf("%.1f%%", r.DropPct)}
	}
	return table("Ablation: CC throughput vs preliminary-flushing cost",
		[]string{"flush cost", "ops/s", "drop vs zero"}, out)
}

// FormatFig12 renders Figure 12's summaries plus a bucketed series.
func FormatFig12(points []Fig12Point, summaries []Fig12Summary) string {
	var out [][]string
	for _, s := range summaries {
		out = append(out, []string{s.System, "fast (preliminary)",
			fmt.Sprintf("%d", s.FastCount), fmt.Sprintf("%.1f", metrics.Ms(s.FastAvg))})
		out = append(out, []string{s.System, "slow (final)",
			fmt.Sprintf("%d", s.SlowCount), fmt.Sprintf("%.1f", metrics.Ms(s.SlowAvg))})
		out = append(out, []string{s.System, "revoked",
			fmt.Sprintf("%d", s.Revoked), ""})
	}
	summary := table("Figure 12: ticket purchase latency regimes (ms)",
		[]string{"system", "regime", "count", "avg ms"}, out)

	// Bucketed series: average latency per 10% of the selling order.
	buckets := map[string][]float64{}
	counts := map[string][]int{}
	const nb = 10
	total := map[string]int{}
	for _, p := range points {
		total[p.System]++
	}
	for _, p := range points {
		n := total[p.System]
		if n == 0 {
			continue
		}
		b := (p.TicketNumber - 1) * nb / n
		if b >= nb {
			b = nb - 1
		}
		if buckets[p.System] == nil {
			buckets[p.System] = make([]float64, nb)
			counts[p.System] = make([]int, nb)
		}
		buckets[p.System][b] += metrics.Ms(p.Latency)
		counts[p.System][b]++
	}
	var series [][]string
	for _, sys := range []string{"CZK", "ZK"} {
		if buckets[sys] == nil {
			continue
		}
		row := []string{sys}
		for b := 0; b < nb; b++ {
			if counts[sys][b] > 0 {
				row = append(row, fmt.Sprintf("%.0f", buckets[sys][b]/float64(counts[sys][b])))
			} else {
				row = append(row, "-")
			}
		}
		series = append(series, row)
	}
	header := []string{"system"}
	for b := 0; b < nb; b++ {
		header = append(header, fmt.Sprintf("%d%%", (b+1)*10))
	}
	return summary + table("Figure 12 series: avg latency (ms) by decile of selling order", header, series)
}

// Format renders the overload experiment: one per-phase table per mode,
// the metastability verdict, and each mode's history-check summary.
func (res *OverloadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Overload: metastable retry storm vs admission-controlled escape ==\n")
	fmt.Fprintf(&b, "offered %.0f ops/s baseline + %.0f ops/s burst, capacity ~%.0f ops/s, op timeout %.0f ms, %d sessions\n",
		res.BaselineRate, res.BurstRate, res.CapacityOps, res.OpTimeoutMs, res.Sessions)
	for _, m := range res.Modes {
		out := make([][]string, len(m.Rows))
		for i, r := range m.Rows {
			out[i] = []string{r.Phase,
				fmt.Sprintf("%d", r.Offered), fmt.Sprintf("%d", r.Completed),
				fmt.Sprintf("%d", r.Degraded),
				fmt.Sprintf("%d", r.TimedOut), fmt.Sprintf("%d", r.RejectedOps),
				fmt.Sprintf("%d", r.SessionErrs),
				fmt.Sprintf("%d", r.Rejected), fmt.Sprintf("%d", r.Shed), fmt.Sprintf("%d", r.Retried),
				fmt.Sprintf("%.0f", r.GoodputOps), fmt.Sprintf("%.0f", r.GoodputPct),
				fmt.Sprintf("%.1f", r.FinalMeanMs), fmt.Sprintf("%.1f", r.FinalP99Ms)}
		}
		b.WriteString(table(m.Mode,
			[]string{"phase", "offered", "done", "degraded", "timeout", "rejected", "sess err",
				"rej att", "shed att", "retry att", "goodput/s", "% base", "final ms", "p99 ms"},
			out))
		b.WriteString(formatDecomp(m.Decomp))
		fmt.Fprintf(&b, "post-burst goodput: %.0f%% of baseline; recovered phase: %.0f%%\n",
			m.PostBurstGoodputPct, m.RecoveredGoodputPct)
		c := m.Check
		fmt.Fprintf(&b, "history check: %d sessions, %d ops, sha256 %.12s…",
			c.Clients, c.Ops, c.HistoryDigest)
		formatCheckLine(&b, c, res.Seed, "session guarantees + cross-object WFR")
	}
	off, on := res.Modes[0], res.Modes[1]
	fmt.Fprintf(&b, "metastable asymmetry: without shedding %.0f%%, with shedding %.0f%% post-burst goodput\n",
		off.PostBurstGoodputPct, on.PostBurstGoodputPct)
	return b.String()
}

// Format renders the shard-count capacity study: the per-cell table, the
// scaling headline, and each cell's history-check summary.
func (res *CapacityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %.0f ms per cell, seed %d\n", res.HorizonMs, res.Seed)
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%.0f", r.OfferedSessionsPerSec),
			fmt.Sprintf("%d", r.SessionsStarted), fmt.Sprintf("%d", r.SessionsCompleted),
			fmt.Sprintf("%d", r.SessionsAborted),
			fmt.Sprintf("%.0f", r.ThroughputOps), fmt.Sprintf("%.0f", r.ThroughputSessions),
			fmt.Sprintf("%.1f", r.WeakMeanMs), fmt.Sprintf("%.1f", r.FinalMeanMs),
			fmt.Sprintf("%.1f", r.FinalP99Ms),
			fmt.Sprintf("%.1f", r.BatchMeanOps),
			fmt.Sprintf("%.0f", r.UtilizationPct), fmt.Sprintf("%.3f", r.FairnessJain)}
	}
	b.WriteString(table("Capacity: session throughput and saturation vs shard count",
		[]string{"shards", "offered/s", "started", "done", "aborted", "ops/s", "sess/s",
			"weak ms", "final ms", "p99 ms", "batch", "util %", "jain"}, out))
	fmt.Fprintf(&b, "scaling: %.2fx ops throughput from %d to %d shards\n",
		res.ScalingX, res.Rows[0].Shards, res.Rows[len(res.Rows)-1].Shards)
	for _, r := range res.Rows {
		c := r.Check
		fmt.Fprintf(&b, "check shards=%d: %d sessions, %d ops, sha256 %.12s…", r.Shards, c.Clients, c.Ops, c.HistoryDigest)
		formatCheckLine(&b, c, res.Seed, "session guarantees + register linearizability")
	}
	return b.String()
}

// Format renders the quorum x geography sweep table.
func (res *SweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s, %d threads, %.0f ms per cell, seed %d\n",
		res.Workload, res.Threads, res.DurationMs, res.Seed)
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{r.Geography, fmt.Sprintf("x%.2g", r.RTTScale), fmt.Sprintf("%d", r.Quorum),
			fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%.0f", r.ThroughputOps),
			fmt.Sprintf("%.1f", r.PrelimMeanMs), fmt.Sprintf("%.1f", r.FinalMeanMs),
			fmt.Sprintf("%.1f", r.PrelimP99Ms), fmt.Sprintf("%.1f", r.FinalP99Ms)}
	}
	b.WriteString(table("Sweep: CC read latency vs quorum, geography and shards",
		[]string{"geography", "rtt", "quorum", "shards", "ops/s", "prelim ms", "final ms", "prelim p99", "final p99"}, out))
	return b.String()
}
