package bench

import (
	"context"
	"sync"
	"time"

	"correctables/internal/apps/tickets"
	"correctables/internal/binding"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// Fig12Point is one purchase of Figure 12: the latency to buy the ticket at
// a given position in the selling order.
type Fig12Point struct {
	// System is "CZK" (ICG with threshold) or "ZK" (always strong).
	System string
	// TicketNumber is the position in the selling order (1-based).
	TicketNumber int
	// Latency is the model-time purchase-decision latency.
	Latency time.Duration
	// UsedPreliminary reports a weak-view confirmation (CZK only).
	UsedPreliminary bool
}

// Fig12Summary condenses the series the way the paper discusses it.
type Fig12Summary struct {
	System string
	// FastAvg is the average latency of preliminary-confirmed purchases;
	// SlowAvg of final-view purchases (for ZK, everything is slow).
	FastAvg, SlowAvg     time.Duration
	FastCount, SlowCount int
	// Revoked counts preliminary confirmations contradicted by the final
	// view (the paper saw on average 2, max 6).
	Revoked int
}

// Fig12 reproduces Figure 12: four retailers colocated with the FRK
// follower (leader in IRL) concurrently sell a fixed stock of tickets.
// With CZK + ICG, purchases confirm on the preliminary view while more than
// Threshold (20) tickets remain, then switch to waiting for the final
// (atomic) view. Vanilla ZK pays coordination latency for every ticket.
func Fig12(cfg Config) ([]Fig12Point, []Fig12Summary) {
	stock := cfg.pick(500, 60)
	const retailers = 4

	var points []Fig12Point
	var summaries []Fig12Summary

	run := func(system string, correctable bool) {
		h := newFabric(cfg)
		e := h.newZK(cfg, zkOpts{correctable: correctable, leader: netsim.IRL})
		tickets.Stock(e, "event", stock)

		var mu sync.Mutex
		var results []Fig12Point
		revokedTotal := 0
		for w := 0; w < retailers; w++ {
			h.spawn(func() {
				r := tickets.NewRetailer(zk.NewBinding(zk.NewQueueClient(e, netsim.FRK, netsim.FRK)))
				for {
					var (
						res tickets.PurchaseResult
						err error
					)
					if correctable {
						res, err = r.PurchaseTicket(context.Background(), "event")
					} else {
						res, err = r.PurchaseTicketStrong(context.Background(), "event")
					}
					if err != nil {
						return
					}
					if res.SoldOut {
						mu.Lock()
						revokedTotal += r.Revoked()
						mu.Unlock()
						return
					}
					// Closed loop, as in the paper: the decision latency is
					// what Fig 12 plots, but the retailer serves the next
					// customer only once this dequeue has committed.
					ticket, _ := res.Assigned.Get().(binding.Item)
					if !ticket.Exists {
						continue // revoked preliminary confirmation; not a sale
					}
					mu.Lock()
					results = append(results, Fig12Point{
						System:          system,
						TicketNumber:    len(results) + 1,
						Latency:         res.Latency,
						UsedPreliminary: res.UsedPreliminary,
					})
					mu.Unlock()
				}
			})
		}
		h.mustRun()

		fast, slow := metrics.NewHistogram(), metrics.NewHistogram()
		for _, p := range results {
			if p.UsedPreliminary {
				fast.Record(p.Latency)
			} else {
				slow.Record(p.Latency)
			}
		}
		points = append(points, results...)
		summaries = append(summaries, Fig12Summary{
			System:    system,
			FastAvg:   fast.Mean(),
			SlowAvg:   slow.Mean(),
			FastCount: fast.Count(),
			SlowCount: slow.Count(),
			Revoked:   revokedTotal,
		})
	}

	run("CZK", true)
	run("ZK", false)
	return points, summaries
}
