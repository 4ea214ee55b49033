package bench

import (
	"time"

	"correctables/internal/ycsb"
)

// Ablation experiments for the two knobs the model adds (PAPER.md, the
// paragraph on `ablations`): replication lag and flush cost. These go beyond
// the paper's figures: they isolate the mechanism behind a result by
// sweeping the single parameter that produces it.

// AblationLagRow is one datapoint of the replication-lag ablation: how the
// staleness window (asynchronous replication delay) drives preliminary/
// final divergence. Fig 7's divergence is entirely produced by this lag;
// at zero lag the preliminary view is almost always correct and ICG costs
// almost nothing.
type AblationLagRow struct {
	// ReplicationDelay is the swept staleness window.
	ReplicationDelay time.Duration
	// DivergencePct is measured under workload A-Latest, the paper's
	// worst case.
	DivergencePct float64
	Reads         int64
}

// AblationReplicationLag sweeps the asynchronous-replication delay and
// measures divergence under the Fig 7 worst-case conditions (workload A,
// Latest distribution, 1K objects).
func AblationReplicationLag(cfg Config) []AblationLagRow {
	dur := cfg.pickDur(10*time.Second, 2*time.Second) // model time
	threadsTotal := cfg.pick(120, 24)
	delays := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	if cfg.Quick {
		delays = []time.Duration{0, 40 * time.Millisecond}
	}

	var rows []AblationLagRow
	for _, delay := range delays {
		w := ycsb.WorkloadA(ycsb.DistLatest, 1000, 1024)
		d := delay
		if d == 0 {
			d = time.Nanosecond // Config treats 0 as "use default"
		}
		pct, prelims := divergence(newFabric(cfg).ycsbRun(cfg, cassandraOpts{correctable: true, replicationDelay: d},
			w, 2, invokeICG, threadsTotal/3, ycsb.Options{Duration: dur}))
		rows = append(rows, AblationLagRow{ReplicationDelay: delay, DivergencePct: pct, Reads: prelims})
	}
	return rows
}

// AblationFlushRow is one datapoint of the preliminary-flushing ablation:
// the extra coordinator service time per ICG read is what costs CC its few
// percent of throughput in Fig 6.
type AblationFlushRow struct {
	// FlushCost is the swept per-read coordinator overhead.
	FlushCost time.Duration
	// Throughput is total attained ops/s under saturation-level load.
	Throughput float64
	// DropPct is the throughput cost relative to the zero-flush-cost run.
	DropPct float64
}

// AblationFlushCost sweeps the preliminary-flushing service time and
// measures attained throughput under saturating load (workload C so that
// every operation exercises the flush path).
func AblationFlushCost(cfg Config) []AblationFlushRow {
	dur := cfg.pickDur(10*time.Second, 2*time.Second) // model time
	threadsTotal := cfg.pick(96, 24)
	costs := []time.Duration{time.Nanosecond, 250 * time.Microsecond,
		500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
	if cfg.Quick {
		costs = []time.Duration{time.Nanosecond, 2 * time.Millisecond}
	}

	var rows []AblationFlushRow
	var baseline float64
	for _, cost := range costs {
		w := ycsb.WorkloadC(ycsb.DistZipfian, 1000, 1024)
		tp := totalThroughput(newFabric(cfg).ycsbRun(cfg, cassandraOpts{correctable: true, flushCost: cost},
			w, 2, invokeICG, threadsTotal/3, ycsb.Options{Duration: dur}))
		row := AblationFlushRow{FlushCost: cost, Throughput: tp}
		if baseline == 0 {
			baseline = tp
		} else {
			row.DropPct = 100 * (baseline - tp) / baseline
		}
		rows = append(rows, row)
	}
	return rows
}
