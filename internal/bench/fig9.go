package bench

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// Fig9Row is one bar of Figure 9: enqueue latency in Correctable ZooKeeper
// (preliminary/final) vs vanilla ZooKeeper, for one placement of the client
// connection and the leader.
type Fig9Row struct {
	// Placement names the configuration, e.g. "Follower (FRK), leader IRL".
	Placement string
	// Series is "CZK preliminary", "CZK final" or "ZK".
	Series string
	// Avg and P99 are model-time latencies.
	Avg, P99 time.Duration
}

// fig9Config is one of the paper's four placements; the client is in IRL.
type fig9Config struct {
	name    string
	contact netsim.Region
	leader  netsim.Region
}

func fig9Configs() []fig9Config {
	return []fig9Config{
		{"Follower (FRK), leader IRL", netsim.FRK, netsim.IRL},
		{"Leader (IRL)", netsim.IRL, netsim.IRL},
		{"Follower (IRL), leader VRG", netsim.IRL, netsim.VRG},
		{"Leader (VRG)", netsim.VRG, netsim.VRG},
	}
}

// Fig9 reproduces Figure 9: latency gaps between preliminary and final
// views of enqueue operations in CZK vs ZK, for four placements of leader
// and contact server; the client is in IRL, elements carry a ~20B
// identifier.
func Fig9(cfg Config) []Fig9Row {
	samples := cfg.pick(50, 6)

	var rows []Fig9Row
	for _, pc := range fig9Configs() {
		// measure enqueues on a fresh ensemble; vanilla ZK (not correctable)
		// offers the strong level alone, so invoke through its binding is
		// invokeStrong and delivers only the final view.
		measure := func(correctable bool) *viewStats {
			h := newFabric(cfg)
			e := h.newZK(cfg, zkOpts{correctable: correctable, leader: pc.leader})
			e.Bootstrap(zk.CreateTxn{Path: "/queues"})
			e.Bootstrap(zk.CreateTxn{Path: "/queues/ev"})
			client := binding.NewClient(zk.NewBinding(zk.NewQueueClient(e, netsim.IRL, pc.contact)))
			st := newViewStats()
			for i := 0; i < samples; i++ {
				st.add(timed(h.clock, h.clock.Now(), binding.Invoke[binding.Item](context.Background(), client,
					binding.Enqueue{Queue: "ev", Item: []byte(fmt.Sprintf("ticket-%013d", i))})))
			}
			h.mustRun()
			return st
		}
		czk, base := measure(true), measure(false).final
		rows = append(rows,
			Fig9Row{pc.name, "CZK preliminary", czk.prelim.Mean(), czk.prelim.Percentile(99)},
			Fig9Row{pc.name, "CZK final", czk.final.Mean(), czk.final.Percentile(99)},
			Fig9Row{pc.name, "ZK", base.Mean(), base.Percentile(99)},
		)
	}
	return rows
}
