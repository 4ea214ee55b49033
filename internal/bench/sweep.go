package bench

import (
	"time"

	"correctables/internal/binding"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// SweepRow is one cell of the quorum x geography parameter sweep: Correctable
// Cassandra (CC, preliminary+final reads) under one YCSB-B load, with the
// read quorum and the deployment's RTT geometry varied independently. The
// figure-6/7 claim the sweep probes: preliminary-view latency tracks the
// closest replica and stays flat across both axes, while final-view latency
// pays for every extra quorum member and every extra kilometer.
type SweepRow struct {
	// Geography names the RTT geometry: the paper's EC2 deployment scaled
	// down to a metro area or up to an intercontinental spread.
	Geography string `json:"geography"`
	// RTTScale is the factor applied to every RTT of the paper's model.
	RTTScale float64 `json:"rtt_scale"`
	// Quorum is the read quorum size (R out of 3 replicas).
	Quorum int `json:"quorum"`
	// Shards is the cluster's token-ring shard count. The geography/quorum
	// cells run unsharded (1); the shard axis holds geography and quorum at
	// the paper's deployment and varies the ring alone, so the extra rows
	// isolate the routing-hop cost non-token-aware clients pay once keys
	// spread over many shards.
	Shards int `json:"shards"`
	// ThroughputOps is attained ops/s summed over the three regional clients.
	ThroughputOps float64 `json:"throughput_ops"`
	// PrelimMeanMs / FinalMeanMs are the IRL client's mean read-view
	// latencies (the client the paper reports).
	PrelimMeanMs float64 `json:"prelim_mean_ms"`
	FinalMeanMs  float64 `json:"final_mean_ms"`
	PrelimP99Ms  float64 `json:"prelim_p99_ms"`
	FinalP99Ms   float64 `json:"final_p99_ms"`
}

// SweepResult is the whole table plus the knobs that produced it.
type SweepResult struct {
	Description string     `json:"description"`
	Workload    string     `json:"workload"`
	Threads     int        `json:"threads"`
	DurationMs  float64    `json:"duration_ms"`
	Seed        int64      `json:"seed"`
	Rows        []SweepRow `json:"rows"`
	untraced
}

// Violations is always 0: the sweep measures latency and runs no checked
// population.
func (res *SweepResult) Violations() int { return 0 }

// sweepGeographies are the RTT geometries, scaling the paper's measured
// EC2 model: x0.25 compresses FRK/IRL/VRG to metro-area distances, x1 is the
// deployment the paper ran, x2 stretches it to an intercontinental worst
// case. Service times and bandwidth stay fixed so the sweep isolates the
// propagation axis.
var sweepGeographies = []struct {
	name  string
	scale float64
}{
	{"metro", 0.25},
	{"paper", 1},
	{"intercontinental", 2},
}

// scaledLatencies multiplies every RTT of the paper's model (including the
// local one) by scale.
func scaledLatencies(scale float64) *netsim.LatencyModel {
	base := netsim.DefaultLatencies()
	m := &netsim.LatencyModel{
		RTTs:     make(map[[2]netsim.Region]time.Duration, len(base.RTTs)),
		LocalRTT: time.Duration(float64(base.LocalRTT) * scale),
	}
	for k, v := range base.RTTs {
		m.RTTs[k] = time.Duration(float64(v) * scale)
	}
	return m
}

// Sweep runs the cheap parameter sweep over Figs 6 and 7: 3 quorum sizes x
// 3 RTT geometries, one YCSB-B run each on Correctable Cassandra with
// preliminary views enabled. Every cell gets a fresh fabric seeded from
// cfg.Seed, so the whole table replays byte-identically per seed.
func Sweep(cfg Config) *SweepResult {
	dur := cfg.pickDur(6*time.Second, 800*time.Millisecond) // model time
	warmup := cfg.pickDur(1*time.Second, 100*time.Millisecond)
	threads := cfg.pick(12, 6)
	w := workloadByName("B", ycsb.DistZipfian, 1000, 1024)

	res := &SweepResult{
		Description: "CC read latency vs quorum size and RTT geography (YCSB-B, 3 regions, RF=3)",
		Workload:    "B",
		Threads:     threads,
		DurationMs:  metrics.Ms(dur),
		Seed:        cfg.Seed,
	}
	cell := func(geoName string, scale float64, quorum, shards int) {
		read := readShape(invokeICG)
		if quorum == 1 { // its own final view, with nothing to be preliminary to
			read = binding.InvokeWeak[[]byte]
		}
		results := newFabricWith(cfg, scaledLatencies(scale)).ycsbRun(cfg, cassandraOpts{correctable: true, shards: shards},
			w, quorum, read, threads/3, ycsb.Options{Duration: dur, Warmup: warmup})
		irl := results[1]
		res.Rows = append(res.Rows, SweepRow{
			Geography:     geoName,
			RTTScale:      scale,
			Quorum:        quorum,
			Shards:        shards,
			ThroughputOps: totalThroughput(results),
			PrelimMeanMs:  metrics.Ms(irl.ReadPrelim.Mean()),
			FinalMeanMs:   metrics.Ms(irl.ReadFinal.Mean()),
			PrelimP99Ms:   metrics.Ms(irl.ReadPrelim.Percentile(99)),
			FinalP99Ms:    metrics.Ms(irl.ReadFinal.Percentile(99)),
		})
	}
	for _, geo := range sweepGeographies {
		for quorum := 1; quorum <= 3; quorum++ {
			cell(geo.name, geo.scale, quorum, 1)
		}
	}
	// Shard-count axis: the paper deployment's geography and quorum, ring
	// width varied alone.
	for _, shards := range []int{2, 4, 8} {
		cell("paper", 1, 2, shards)
	}
	return res
}
