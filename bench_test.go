package correctables_test

// Benchmarks regenerating the paper's evaluation, one per figure driver
// (§6). Each benchmark runs the corresponding bench-package driver in quick
// mode and reports headline metrics via b.ReportMetric on the paper's units
// (model-time milliseconds, kB/op, percent), so `go test -bench=.` doubles
// as a smoke reproduction of the whole evaluation. cmd/icgbench runs the
// full-size versions.

import (
	"testing"

	"correctables/internal/bench"
	"correctables/internal/metrics"
	"correctables/internal/ycsb"
)

func quickCfg(seed int64) bench.Config {
	return bench.Config{Seed: seed, Quick: true}
}

// BenchmarkFig5SingleRequestLatency regenerates Figure 5: single-request
// read latencies for C1/C2/C3 vs CC2/CC3 preliminary+final views.
func BenchmarkFig5SingleRequestLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig5(quickCfg(int64(i)))
		for _, r := range rows {
			switch r.System {
			case "C1":
				b.ReportMetric(metrics.Ms(r.Avg), "C1-avg-ms")
			case "CC2 preliminary":
				b.ReportMetric(metrics.Ms(r.Avg), "CC2-prelim-ms")
			case "CC2 final":
				b.ReportMetric(metrics.Ms(r.Avg), "CC2-final-ms")
			case "CC3 final":
				b.ReportMetric(metrics.Ms(r.P99), "CC3-final-p99-ms")
			}
		}
	}
}

// BenchmarkFig6PerformanceUnderLoad regenerates Figure 6: YCSB A/B/C
// latency vs throughput for C1, C2 and CC2.
func BenchmarkFig6PerformanceUnderLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6(quickCfg(int64(i)))
		for _, r := range rows {
			if r.Workload == "A" && r.System == "CC2 final" {
				b.ReportMetric(r.Throughput, "A-CC2-ops/s")
				b.ReportMetric(metrics.Ms(r.Latency), "A-CC2-final-ms")
			}
		}
	}
}

// BenchmarkFig7And8DivergenceBandwidth regenerates Figures 7 and 8 from
// their one shared sweep: divergence of preliminary from final views under
// YCSB A/B with Latest/Zipfian key choice, and client-link kB/op for C1 vs
// CC2 vs *CC2 (confirmation optimization) in the same worlds.
func BenchmarkFig7And8DivergenceBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		div, bw := bench.Fig8(quickCfg(int64(i)))
		var worst float64
		for _, r := range div {
			if r.Workload == "A" && r.Distribution == ycsb.DistLatest && r.DivergencePct > worst {
				worst = r.DivergencePct
			}
		}
		b.ReportMetric(worst, "A-latest-divergence-%")
		for _, r := range bw {
			if r.Workload == "A" && r.Distribution == ycsb.DistLatest {
				switch r.System {
				case "CC2":
					b.ReportMetric(r.OverheadPct, "A-latest-CC2-overhead-%")
				case "*CC2":
					b.ReportMetric(r.OverheadPct, "A-latest-optCC2-overhead-%")
				}
			}
		}
	}
}

// BenchmarkFig9ZooKeeperLatencyGaps regenerates Figure 9: CZK preliminary/
// final enqueue latency vs ZK across four leader/contact placements.
func BenchmarkFig9ZooKeeperLatencyGaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig9(quickCfg(int64(i)))
		for _, r := range rows {
			if r.Placement == "Follower (IRL), leader VRG" {
				switch r.Series {
				case "CZK preliminary":
					b.ReportMetric(metrics.Ms(r.Avg), "prelim-ms")
				case "CZK final":
					b.ReportMetric(metrics.Ms(r.Avg), "final-ms")
				}
			}
		}
	}
}

// BenchmarkFig10DequeueBandwidth regenerates Figure 10: dequeue kB/op, ZK
// (grows with queue size) vs CZK (constant).
func BenchmarkFig10DequeueBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig10(quickCfg(int64(i)))
		for _, r := range rows {
			if r.Clients == 1 && r.QueueSize == 500 {
				b.ReportMetric(r.KBPerOp, r.System+"-kB/op")
			}
		}
	}
}

// BenchmarkFig11SpeculationCaseStudies regenerates Figure 11: end-to-end
// latency of fetchAdsByUserId and get_timeline, baseline vs speculative.
func BenchmarkFig11SpeculationCaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig11(quickCfg(int64(i)))
		for _, r := range rows {
			if r.Workload == "B" && r.Threads == 2 {
				b.ReportMetric(metrics.Ms(r.Latency), r.App+"-"+r.System+"-ms")
			}
		}
	}
}

// BenchmarkFig12TicketSelling regenerates Figure 12: per-ticket purchase
// latency with the last-20 threshold, CZK vs ZK.
func BenchmarkFig12TicketSelling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, summaries := bench.Fig12(quickCfg(int64(i)))
		for _, s := range summaries {
			if s.System == "CZK" {
				b.ReportMetric(metrics.Ms(s.FastAvg), "CZK-fast-ms")
				b.ReportMetric(metrics.Ms(s.SlowAvg), "CZK-slow-ms")
			} else {
				b.ReportMetric(metrics.Ms(s.SlowAvg), "ZK-ms")
			}
		}
	}
}
