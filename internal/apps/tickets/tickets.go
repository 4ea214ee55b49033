// Package tickets implements the paper's ticket-selling case study (§4.3,
// Listing 5; evaluated in §6.3.2 / Fig 12): selling tickets from a fixed
// stock modeled as a replicated queue. While the stock is large, a weakly
// consistent (preliminary) dequeue result is safe — tickets bear no
// specific ordering, so it is irrelevant which exact element is dequeued —
// and the purchase confirms immediately, with the actual dequeue completing
// in the background. Once the stock drops below a threshold, the retailer
// waits for the final (atomic) result to avoid overselling.
package tickets

import (
	"context"
	"fmt"
	"sync"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// DefaultThreshold is the stock size below which retailers wait for strong
// consistency (the paper uses the last 20 tickets).
const DefaultThreshold = 20

// PurchaseResult is the outcome of one PurchaseTicket call. The purchase
// *decision* (Confirmed/SoldOut and its Latency) may be taken on the
// preliminary view; the concrete ticket is whatever the background atomic
// dequeue assigns, delivered through Assigned.
type PurchaseResult struct {
	// Confirmed reports a successful purchase decision.
	Confirmed bool
	// SoldOut reports an empty stock.
	SoldOut bool
	// UsedPreliminary reports that the decision was taken on the weak view
	// (stock above threshold) without waiting for coordination.
	UsedPreliminary bool
	// Latency is the model-time latency until the purchase decision.
	Latency time.Duration
	// Remaining is the stock estimate at decision time.
	Remaining int
	// Assigned resolves (exactly one Put) with the ticket the committed
	// dequeue assigned — a binding.Item with Exists == false if the final
	// view found the queue empty (a revoked preliminary confirmation, or a
	// sold-out decision). Read it with Assigned.Get().(binding.Item).
	Assigned *netsim.Queue
}

// Retailer sells tickets from a queue-backed stock.
type Retailer struct {
	queue     *zk.Queue
	clock     netsim.Clock
	Threshold int

	mu      sync.Mutex
	revoked int
}

// NewRetailer builds a retailer over a zk queue binding.
func NewRetailer(b *zk.Binding) *Retailer {
	return &Retailer{
		queue:     zk.NewQueue(b),
		clock:     b.QueueClient().Ensemble().Transport().Clock(),
		Threshold: DefaultThreshold,
	}
}

// Revoked returns how many preliminary-confirmed purchases were later
// contradicted by an empty final view. (The paper reports on average the
// last ~2 tickets revoked with their conservative threshold of 20.)
func (r *Retailer) Revoked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.revoked
}

// PurchaseTicket implements Listing 5 with ICG: invoke(dequeue) yields a
// preliminary view (local simulation) and a final view (atomic dequeue).
// If the preliminary shows plenty of stock, the purchase decision confirms
// immediately and the dequeue completes in the background; otherwise the
// retailer waits for the final view.
func (r *Retailer) PurchaseTicket(ctx context.Context, event string) (PurchaseResult, error) {
	sw := r.clock.StartStopwatch()
	cor := r.queue.Dequeue(ctx, event)

	assigned := r.clock.NewQueue()
	type decision struct {
		res PurchaseResult
		err error
	}
	decided := r.clock.NewQueue()
	var once sync.Once
	decidedEarly := false

	cor.SetCallbacks(core.Callbacks[binding.Item]{
		OnUpdate: func(v core.View[binding.Item]) {
			q := v.Value
			if !v.Final {
				// Listing 5's onUpdate: many tickets left => confirm on the
				// weak result; the dequeue completes in the background.
				if q.Exists && q.Remaining > r.Threshold {
					decidedEarly = true
					once.Do(func() {
						decided.Put(decision{res: PurchaseResult{
							Confirmed:       true,
							UsedPreliminary: true,
							Latency:         sw.ElapsedModel(),
							Remaining:       q.Remaining,
							Assigned:        assigned,
						}})
					})
				}
				return
			}
			// Listing 5's onFinal: the committed outcome.
			assigned.Put(q)
			if decidedEarly {
				if !q.Exists {
					r.mu.Lock()
					r.revoked++
					r.mu.Unlock()
				}
				return
			}
			once.Do(func() {
				decided.Put(decision{res: PurchaseResult{
					Confirmed: q.Exists,
					SoldOut:   !q.Exists,
					Latency:   sw.ElapsedModel(),
					Remaining: q.Remaining,
					Assigned:  assigned,
				}})
			})
		},
		OnError: func(err error) {
			once.Do(func() { decided.Put(decision{err: err}) })
		},
	})

	d := decided.Get().(decision)
	return d.res, d.err
}

// PurchaseTicketStrong is the vanilla-ZooKeeper baseline: always wait for
// the atomic dequeue.
func (r *Retailer) PurchaseTicketStrong(ctx context.Context, event string) (PurchaseResult, error) {
	sw := r.clock.StartStopwatch()
	v, err := r.queue.DequeueStrong(ctx, event).Final(ctx)
	if err != nil {
		return PurchaseResult{}, err
	}
	q := v.Value
	assigned := r.clock.NewQueue()
	assigned.Put(q)
	return PurchaseResult{
		Confirmed: q.Exists,
		SoldOut:   !q.Exists,
		Latency:   sw.ElapsedModel(),
		Remaining: q.Remaining,
		Assigned:  assigned,
	}, nil
}

// Stock sets up an event's ticket stock: it creates the queue directory and
// enqueues n tickets directly (no protocol traffic, like an organizer's
// offline load).
func Stock(e *zk.Ensemble, event string, n int) {
	e.Bootstrap(zk.CreateTxn{Path: "/queues"})
	e.Bootstrap(zk.CreateTxn{Path: "/queues/" + event})
	for i := 0; i < n; i++ {
		e.Bootstrap(zk.CreateTxn{
			Path:       fmt.Sprintf("/queues/%s/q-", event),
			Data:       []byte(fmt.Sprintf("ticket-%04d", i)),
			Sequential: true,
		})
	}
}
