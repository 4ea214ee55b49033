package bench

import (
	"testing"
	"time"

	"correctables/internal/ycsb"
)

// saturationSweep runs one fig6-style load cell (YCSB workload A, CC2,
// 12 closed-loop threads across the three regions — a mid-sweep offered
// load of Fig 6 — for 2s of model time) and returns total attained
// throughput in ops per model second.
func saturationSweep(cfg Config) float64 {
	w := workloadByName("A", ycsb.DistZipfian, 1000, 1024)
	h := newFabric(cfg)
	cluster := h.newCassandra(cfg, cassandraOpts{correctable: true})
	preloadDataset(cluster, w)
	results := h.runGroups(cluster, w, 2, true, 4, ycsb.Options{
		Duration: 2 * time.Second,
		Seed:     cfg.Seed,
	})
	var tp float64
	for _, r := range results {
		tp += r.ThroughputOps
	}
	return tp
}

// BenchmarkVirtualVsWall demonstrates the acceptance criterion of the
// virtual-time engine: the same fig6-style saturation sweep, same model
// duration, under the VirtualClock vs the WallClock at scale 0.1. The wall
// run needs model/scale = 12s of real sleeping; the virtual run needs only
// the CPU time of its events. The measured speedup (reported as the
// speedup-x metric, wall seconds divided by virtual seconds) is two to
// three orders of magnitude — see BENCH_virtual_vs_wall.json for the
// recorded baseline.
func BenchmarkVirtualVsWall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		vtp := saturationSweep(Config{Seed: 42})
		virtualWall := time.Since(start)

		start = time.Now()
		wtp := saturationSweep(Config{Wall: true, Scale: 0.1, Seed: 42})
		wallWall := time.Since(start)

		speedup := float64(wallWall) / float64(virtualWall)
		b.ReportMetric(speedup, "speedup-x")
		b.ReportMetric(virtualWall.Seconds()*1000, "virtual-ms")
		b.ReportMetric(wallWall.Seconds()*1000, "wall-ms")
		b.ReportMetric(vtp, "virtual-ops/s")
		b.ReportMetric(wtp, "wall-ops/s")
		if speedup < 10 {
			b.Fatalf("virtual clock speedup = %.1fx, want >= 10x (virtual %v vs wall %v)",
				speedup, virtualWall, wallWall)
		}
		// Identical-shape check: both modes must drive the cluster into the
		// same saturation regime (throughputs within 2x of each other — the
		// wall run carries sleep-granularity noise, the virtual run none).
		if vtp < wtp/2 || vtp > wtp*2 {
			b.Fatalf("throughput shapes diverged: virtual %.0f ops/s vs wall %.0f ops/s", vtp, wtp)
		}
	}
}
