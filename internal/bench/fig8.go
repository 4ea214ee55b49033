package bench

import (
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// Fig7Row is one datapoint of Figure 7: the fraction of ICG reads whose
// preliminary view diverged from the final view, for one workload/
// distribution at one contention level.
type Fig7Row struct {
	Workload     string // "A" or "B"
	Distribution ycsb.DistKind
	// Threads is the total client threads across the three regions.
	Threads int
	// DivergencePct is 100 * diverged / reads-with-preliminary, aggregated
	// over all clients.
	DivergencePct float64
	// Reads is the denominator (sample size).
	Reads int64
}

// Fig8Row is one datapoint of Figure 8: client-link efficiency (kB
// transferred per operation) for one system under one workload/
// distribution at one contention level.
type Fig8Row struct {
	Workload     string
	Distribution ycsb.DistKind
	Threads      int
	// System is "C1" (baseline weak reads), "CC2" (ICG, no confirmation
	// optimization) or "*CC2" (ICG with the confirmation optimization).
	System string
	// KBPerOp is client-link kilobytes per completed operation.
	KBPerOp float64
	// OverheadPct is the relative overhead vs the C1 baseline at the same
	// point (0 for C1 itself).
	OverheadPct float64
	// DivergencePct and Reads are the run's divergence, as in Fig7Row (0
	// for C1, which has no preliminary views): a diverged final cannot
	// shrink to a confirmation, so they bound what *CC2 can save.
	DivergencePct float64
	Reads         int64
}

// fig7ThreadSweep mirrors the paper's x-axis (30..300 total threads).
func fig7ThreadSweep(cfg Config) []int {
	if cfg.Quick {
		return []int{12, 30}
	}
	return []int{30, 60, 120, 180, 240, 300}
}

// Fig8 reproduces Figures 7 and 8 from one world per (workload,
// distribution, threads, system) cell, on a small (1K objects) dataset so
// that clients contend on a popular subset.
//
// Figure 7 is the divergence of preliminary from final views in
// Correctable Cassandra, read off the CC2 worlds. Divergence is highest
// for A-Latest (the paper measures up to 25%): half the operations are
// writes and reads chase recently updated keys, whose propagation to the
// preliminary replica is still in flight.
//
// Figure 8 is the bandwidth overhead of the ICG implementation under those
// same divergence conditions (§6.2.1: the worst case for the confirmation
// optimization, since diverged finals cannot be replaced by
// confirmations). The paper measures, for workload A-Latest, +77% for
// unoptimized CC2 cut to +27% by confirmations; for workload B, +90% down
// to +15%.
func Fig8(cfg Config) ([]Fig7Row, []Fig8Row) {
	dur := cfg.pickDur(12*time.Second, 2*time.Second) // model time
	warmup := cfg.pickDur(2*time.Second, 200*time.Millisecond)
	const records = 1000 // "a small 1K objects dataset"
	const valueSize = 1024

	systems := []struct {
		name   string
		copts  cassandraOpts
		quorum int
		read   readShape
	}{
		{"C1", cassandraOpts{}, 1, binding.InvokeWeak[[]byte]},
		{"CC2", cassandraOpts{correctable: true}, 2, invokeICG},
		{"*CC2", cassandraOpts{correctable: true, confirmOpt: true}, 2, invokeICG},
	}

	var div []Fig7Row
	var bw []Fig8Row
	for _, wname := range []string{"A", "B"} {
		for _, dist := range []ycsb.DistKind{ycsb.DistLatest, ycsb.DistZipfian} {
			for _, threadsTotal := range fig7ThreadSweep(cfg) {
				var baseline float64
				for _, sys := range systems {
					w := workloadByName(wname, dist, records, valueSize)
					h := newFabric(cfg)
					// Bytes count from the warm-up boundary, as ops do.
					var base int64
					h.clock.RunAt(warmup, func() { base = h.meter.Class(netsim.LinkClient).Bytes })
					results := h.ycsbRun(cfg, sys.copts, w, sys.quorum, sys.read, threadsTotal/3,
						ycsb.Options{Duration: dur, Warmup: warmup})
					var ops int64
					for _, r := range results {
						ops += r.Ops
					}
					bytes := h.meter.Class(netsim.LinkClient).Bytes - base
					row := Fig8Row{
						Workload:     wname,
						Distribution: dist,
						Threads:      threadsTotal,
						System:       sys.name,
						KBPerOp:      float64(bytes) / 1024 / float64(max(ops, 1)),
					}
					if !sys.copts.correctable {
						baseline = row.KBPerOp
					} else {
						row.OverheadPct = 100 * (row.KBPerOp - baseline) / baseline
						row.DivergencePct, row.Reads = divergence(results)
					}
					if sys.name == "CC2" {
						div = append(div, Fig7Row{wname, dist, threadsTotal, row.DivergencePct, row.Reads})
					}
					bw = append(bw, row)
				}
			}
		}
	}
	return div, bw
}
