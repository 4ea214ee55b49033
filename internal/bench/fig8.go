package bench

import (
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

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
}

// Fig8 reproduces Figure 8: bandwidth overhead of the ICG implementation in
// Correctable Cassandra under the divergence-experiment conditions (the
// worst case for the confirmation optimization, since diverged finals
// cannot be replaced by confirmations). The paper measures, for workload
// A-Latest, +77% for unoptimized CC2 cut to +27% by confirmations; for
// workload B, +90% down to +15%.
func Fig8(cfg Config) []Fig8Row {
	dur := cfg.pickDur(12*time.Second, 2*time.Second) // model time
	const records = 1000
	const valueSize = 1024

	type system struct {
		name        string
		correctable bool
		confirmOpt  bool
		quorum      int
		read        readShape
	}
	systems := []system{
		{"C1", false, false, 1, binding.InvokeWeak[[]byte]},
		{"CC2", true, false, 2, invokeICG},
		{"*CC2", true, true, 2, invokeICG},
	}

	sweep := fig7ThreadSweep(cfg)
	if cfg.Quick {
		sweep = sweep[:1]
	}

	var rows []Fig8Row
	for _, wname := range []string{"A", "B"} {
		for _, dist := range []ycsb.DistKind{ycsb.DistLatest, ycsb.DistZipfian} {
			for _, threadsTotal := range sweep {
				var baseline float64
				for _, sys := range systems {
					w := workloadByName(wname, dist, records, valueSize)
					h := newFabric(cfg)
					cluster := h.newCassandra(cfg, cassandraOpts{
						correctable: sys.correctable,
						confirmOpt:  sys.confirmOpt,
					})
					preloadDataset(cluster, w)
					base := h.meter.Class(netsim.LinkClient).Bytes
					// No warmup: the meter integrates the whole run, so ops
					// and bytes must cover the same span.
					results := h.runGroups(cluster, w, sys.quorum, sys.read, threadsTotal/3, ycsb.Options{
						Duration: dur,
						Seed:     cfg.Seed,
					})
					var ops int64
					for _, r := range results {
						ops += r.Ops
					}
					if ops == 0 {
						ops = 1
					}
					bytes := h.meter.Class(netsim.LinkClient).Bytes - base
					kb := float64(bytes) / 1024 / float64(ops)
					row := Fig8Row{
						Workload:     wname,
						Distribution: dist,
						Threads:      threadsTotal,
						System:       sys.name,
						KBPerOp:      kb,
					}
					if sys.name == "C1" {
						baseline = kb
					} else if baseline > 0 {
						row.OverheadPct = 100 * (kb - baseline) / baseline
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}
