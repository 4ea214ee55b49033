package bench

import (
	"time"

	"correctables/internal/binding"
	"correctables/internal/ycsb"
)

// Fig6Row is one datapoint of Figure 6: average latency as a function of
// attained throughput for one system under one YCSB workload, at one
// offered-load level (thread count).
type Fig6Row struct {
	Workload string // "A", "B", "C"
	System   string // "C1", "C2", "CC2 preliminary", "CC2 final"
	// Threads is the total client threads across the three regions.
	Threads int
	// Throughput is attained ops/s (model time) summed over all clients.
	Throughput float64
	// Latency is the average read-view latency for the IRL client (the one
	// the paper reports).
	Latency time.Duration
	// P99 is the 99th-percentile latency for the IRL client.
	P99 time.Duration
}

// fig6ThreadSweep returns the offered-load levels.
func fig6ThreadSweep(cfg Config) []int {
	if cfg.Quick {
		return []int{3, 12}
	}
	return []int{3, 6, 12, 24, 48, 96}
}

// Fig6 reproduces Figure 6: performance of Correctable Cassandra under
// load, YCSB workloads A, B and C; three clients (one per region), each
// connected to a remote replica; replication factor 3, W=1. CC2's
// preliminary and final series share throughput but differ in latency, and
// CC trades a few percent of throughput for the preliminary flushing work.
func Fig6(cfg Config) []Fig6Row {
	dur := cfg.pickDur(12*time.Second, 1600*time.Millisecond) // model time
	warmup := cfg.pickDur(2*time.Second, 200*time.Millisecond)
	records := 1000
	valueSize := 1024 // YCSB default record size

	type system struct {
		name        string
		correctable bool
		quorum      int
		read        readShape
	}
	systems := []system{
		{"C1", false, 1, binding.InvokeWeak[[]byte]},
		{"C2", false, 2, binding.InvokeStrong[[]byte]},
		{"CC2", true, 2, invokeICG},
	}

	var rows []Fig6Row
	for _, wname := range []string{"A", "B", "C"} {
		for _, threadsTotal := range fig6ThreadSweep(cfg) {
			for _, sys := range systems {
				w := workloadByName(wname, ycsb.DistZipfian, records, valueSize)
				results := newFabric(cfg).ycsbRun(cfg, cassandraOpts{correctable: sys.correctable},
					w, sys.quorum, sys.read, threadsTotal/3, ycsb.Options{Duration: dur, Warmup: warmup})
				total := totalThroughput(results)
				irl := results[1] // the paper reports latency for the IRL client
				// CC2 alone has a preliminary series.
				if sys.correctable {
					rows = append(rows,
						Fig6Row{wname, "CC2 preliminary", threadsTotal, total,
							irl.ReadPrelim.Mean(), irl.ReadPrelim.Percentile(99)},
						Fig6Row{wname, "CC2 final", threadsTotal, total,
							irl.ReadFinal.Mean(), irl.ReadFinal.Percentile(99)},
					)
				} else {
					rows = append(rows, Fig6Row{wname, sys.name, threadsTotal, total,
						irl.ReadFinal.Mean(), irl.ReadFinal.Percentile(99)})
				}
			}
		}
	}
	return rows
}

// workloadByName builds one of the paper's workloads.
func workloadByName(name string, dist ycsb.DistKind, records, valueSize int) ycsb.Workload {
	switch name {
	case "A":
		return ycsb.WorkloadA(dist, records, valueSize)
	case "B":
		return ycsb.WorkloadB(dist, records, valueSize)
	case "C":
		return ycsb.WorkloadC(dist, records, valueSize)
	default:
		panic("bench: unknown workload " + name)
	}
}
