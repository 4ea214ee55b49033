package bench

import (
	"context"
	"fmt"

	"correctables/internal/binding"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// Fig10Row is one datapoint of Figure 10: client-link bandwidth per dequeue
// operation, as contention (number of clients) grows, for one queue size.
type Fig10Row struct {
	System string // "ZK" or "CZK"
	// QueueSize is the standing queue length (500 or 1000 tickets).
	QueueSize int
	// Clients is the number of concurrently dequeuing clients.
	Clients int
	// KBPerOp is client-link kilobytes per successful dequeue.
	KBPerOp float64
}

// fig10ClientSweep mirrors the paper's x-axis.
func fig10ClientSweep(cfg Config) []int {
	if cfg.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 6, 8, 12}
}

// Fig10 reproduces Figure 10: efficiency of dequeue operations in CZK vs
// ZK. The vanilla recipe's getChildren response carries the whole child
// list, so its cost grows with the queue size and with contention (delete
// races force retries, each re-reading the listing); CZK reads a
// constant-size tail and dequeues atomically server-side, so its cost is
// independent of queue size.
func Fig10(cfg Config) []Fig10Row {
	opsTotal := cfg.pick(48, 8)

	var rows []Fig10Row
	for _, queueSize := range []int{500, 1000} {
		for _, clients := range fig10ClientSweep(cfg) {
			for _, sys := range []struct {
				name        string
				correctable bool
			}{{"ZK", false}, {"CZK", true}} {
				h := newFabric(cfg)
				e := h.newZK(cfg, zkOpts{correctable: sys.correctable, leader: netsim.IRL})
				e.Bootstrap(zk.CreateTxn{Path: "/queues"})
				e.Bootstrap(zk.CreateTxn{Path: "/queues/ev"})
				size := queueSize
				if cfg.Quick {
					size = queueSize / 10
				}
				for i := 0; i < size; i++ {
					e.Bootstrap(zk.CreateTxn{
						Path:       "/queues/ev/q-",
						Data:       []byte(fmt.Sprintf("tkt-%07d", i)),
						Sequential: true,
					})
				}
				base := h.meter.Class(netsim.LinkClient).Bytes

				perClient := opsTotal / clients
				if perClient == 0 {
					perClient = 1
				}
				for c := 0; c < clients; c++ {
					h.spawn(func() {
						ctx := context.Background()
						client := binding.NewClient(zk.NewBinding(zk.NewQueueClient(e, netsim.FRK, netsim.FRK)))
						for i := 0; i < perClient; i++ {
							_, _ = binding.Invoke[binding.Item](ctx, client, binding.Dequeue{Queue: "ev"}).Final(ctx)
						}
					})
				}
				h.mustRun()
				ops := perClient * clients
				bytes := h.meter.Class(netsim.LinkClient).Bytes - base
				rows = append(rows, Fig10Row{
					System:    sys.name,
					QueueSize: queueSize,
					Clients:   clients,
					KBPerOp:   float64(bytes) / 1024 / float64(ops),
				})
			}
		}
	}
	return rows
}
