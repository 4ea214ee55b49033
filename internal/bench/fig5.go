package bench

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// Fig5Row is one bar of Figure 5: single-request read latency in Cassandra
// for one system/view, grouped by read quorum size.
type Fig5Row struct {
	// Group is the quorum group ("R=1", "R=2", "R=3").
	Group string
	// System is the bar label (C1, C2, C3, CC2 preliminary, CC2 final,
	// CC3 preliminary, CC3 final).
	System string
	// Avg and P99 are model-time latencies.
	Avg, P99 time.Duration
}

// Fig5 reproduces Figure 5: single-request latencies for different quorum
// configurations, client in IRL contacting the FRK coordinator, 100-byte
// objects. The latency gap between CC preliminary and final views is the
// speculation window.
func Fig5(cfg Config) []Fig5Row {
	samples := cfg.pick(60, 8)
	const keys = 100

	measure := func(correctable bool, quorum int, read readShape) *viewStats {
		h := newFabric(cfg)
		cluster := h.newCassandra(cfg, cassandraOpts{correctable: correctable})
		val := make([]byte, 100)
		for i := 0; i < keys; i++ {
			cluster.Preload(ycsb.Key(i), val)
		}
		client := cassandraClient(cluster, netsim.IRL, netsim.FRK, quorum)
		st := newViewStats()
		for i := 0; i < samples; i++ {
			st.add(timed(h.clock, h.clock.Now(), read(context.Background(), client, binding.Get{Key: ycsb.Key(i % keys)})))
		}
		h.mustRun()
		return st
	}

	var rows []Fig5Row
	add := func(group, system string, h *metrics.Histogram) {
		rows = append(rows, Fig5Row{Group: group, System: system, Avg: h.Mean(), P99: h.Percentile(99)})
	}

	// Baselines C1, C2, C3: invokeWeak for the R=1 read, invokeStrong for a
	// quorum read.
	for _, q := range []int{1, 2, 3} {
		read := readShape(binding.InvokeStrong[[]byte])
		if q == 1 {
			read = binding.InvokeWeak[[]byte]
		}
		add(fmt.Sprintf("R=%d", q), fmt.Sprintf("C%d", q), measure(false, q, read).final)
	}
	// CC2 and CC3: preliminary + final from a single ICG read.
	for _, q := range []int{2, 3} {
		st := measure(true, q, invokeICG)
		add(fmt.Sprintf("R=%d", q), fmt.Sprintf("CC%d preliminary", q), st.prelim)
		add(fmt.Sprintf("R=%d", q), fmt.Sprintf("CC%d final", q), st.final)
	}
	return rows
}
