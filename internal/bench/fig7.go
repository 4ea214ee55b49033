package bench

import (
	"time"

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

// fig7ThreadSweep mirrors the paper's x-axis (30..300 total threads).
func fig7ThreadSweep(cfg Config) []int {
	if cfg.Quick {
		return []int{12, 30}
	}
	return []int{30, 60, 120, 180, 240, 300}
}

// Fig7 reproduces Figure 7: divergence of preliminary from final views in
// Correctable Cassandra, on a small (1K objects) dataset so that clients
// contend on a popular subset; workloads A and B under the Latest and
// Zipfian distributions. Divergence is highest for A-Latest (the paper
// measures up to 25%): half the operations are writes and reads chase
// recently updated keys, whose propagation to the preliminary replica is
// still in flight.
func Fig7(cfg Config) []Fig7Row {
	dur := cfg.pickDur(12*time.Second, 2*time.Second) // model time
	warmup := cfg.pickDur(2*time.Second, 200*time.Millisecond)
	const records = 1000 // "a small 1K objects dataset"
	const valueSize = 1024

	var rows []Fig7Row
	for _, wname := range []string{"A", "B"} {
		for _, dist := range []ycsb.DistKind{ycsb.DistLatest, ycsb.DistZipfian} {
			for _, threadsTotal := range fig7ThreadSweep(cfg) {
				w := workloadByName(wname, dist, records, valueSize)
				pct, prelims := divergence(newFabric(cfg).ycsbRun(cfg, cassandraOpts{correctable: true},
					w, 2, invokeICG, threadsTotal/3, ycsb.Options{Duration: dur, Warmup: warmup}))
				rows = append(rows, Fig7Row{
					Workload:      wname,
					Distribution:  dist,
					Threads:       threadsTotal,
					DivergencePct: pct,
					Reads:         prelims,
				})
			}
		}
	}
	return rows
}
