//go:build !race

package zk

import (
	"context"
	"testing"

	"correctables/internal/binding"
	"correctables/internal/netsim"
)

// TestAllocGateQueueOps pins what one queue operation through the Binding
// costs end to end — client library, binding, contact server, forwarding to
// the leader, one propose round, commit delivery on all three servers, two
// views — on a warm virtual clock (worker pool, event, record and proposal
// free lists populated). The budgets are absolute, and what is left is what
// the operation creates or the caller keeps:
//
//   - enqueue, 17 (40 before items were copied once and shared, names were
//     formatted without fmt, and the binding and the propose round ran on
//     recycled records; 20 before the contact's simulation read the queue's
//     directory off the item prefix; 19 before the operation became one
//     record, whose preliminary flush and whose proposal's commit broadcast
//     are steps bound once): the boxed operation, the Correctable and the
//     library's result callback; the item's one copy; the queue's item
//     prefix; the predicted name, the preliminary element and the final
//     element; the boxed transaction; on each of the three servers the znode
//     and its sequential path; the two views' boxes on the binding wire.
//   - dequeue, 14 (26, then 16 before): the same three from the library, the
//     directory, the preliminary element, the boxed transaction and the two
//     view boxes; and on each server the head's path and the element the
//     transaction returns.
//
// The contact's applied-wait takes a pooled event and a slot in a reused
// slice, and here never waits: each operation finds its commit applied.
//
// Counts of actors repeat exactly: an enqueue starts none (three before the
// two follower legs of its proposal became records, one before the
// operation did).
func TestAllocGateQueueOps(t *testing.T) {
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	c := binding.NewClient(NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK)))
	ctx := context.Background()
	item := []byte("payload")

	enqueue := func() {
		if _, err := binding.Invoke[binding.Item](ctx, c, binding.Enqueue{Queue: "t", Item: item}).Final(ctx); err != nil {
			t.Fatal(err)
		}
	}
	dequeue := func() {
		v, err := binding.Invoke[binding.Item](ctx, c, binding.Dequeue{Queue: "t"}).Final(ctx)
		if err != nil || !v.Value.Exists {
			t.Fatalf("dequeue = %+v, %v", v.Value, err)
		}
	}
	// The dequeues of the measured runs need elements: stock the queue, and
	// warm every free list on the way.
	for i := 0; i < 1000; i++ {
		enqueue()
	}
	for i := 0; i < 32; i++ {
		dequeue()
	}
	for _, g := range []struct {
		name   string
		op     func()
		budget float64
	}{
		{"enqueue", enqueue, 17},
		{"dequeue", dequeue, 14},
	} {
		got := testing.AllocsPerRun(300, g.op)
		t.Logf("allocs/%s: %.1f", g.name, got)
		if got > g.budget {
			t.Errorf("%s allocates %.1f/op, budget %.0f", g.name, got, g.budget)
		}
	}
	before := clock.Spawned()
	enqueue()
	if n := clock.Spawned() - before; n != 0 {
		t.Errorf("an enqueue starts %d actors, want 0", n)
	}
	clock.Drain()
}

// TestAllocGateVanillaDequeue is TestAllocGateQueueOps for the vanilla
// dequeue recipe through the Binding on a warm clock: getChildren, getData
// and delete at the contact, the delete through one propose round. It
// starts no actor (one, its body, before the recipe became record states;
// a pooled worker ran it without allocating), and its budget, 9 (9 then
// too), is the library's three, the queue's directory, the child list the
// contact returns, the head's path, the boxed delete, the removed element
// and its view's box.
func TestAllocGateVanillaDequeue(t *testing.T) {
	e, _, clock := newTestEnsemble(t, false, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	for i := 0; i < 1000; i++ {
		e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte("payload"), Sequential: true})
	}
	c := binding.NewClient(NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK)))
	ctx := context.Background()
	dequeue := func() {
		v, err := binding.Invoke[binding.Item](ctx, c, binding.Dequeue{Queue: "t"}).Final(ctx)
		if err != nil || !v.Value.Exists {
			t.Fatalf("dequeue = %+v, %v", v.Value, err)
		}
	}
	for i := 0; i < 32; i++ {
		dequeue()
	}
	got := testing.AllocsPerRun(300, dequeue)
	t.Logf("allocs/dequeue: %.1f", got)
	if budget := 9.0; got > budget {
		t.Errorf("a vanilla dequeue allocates %.1f/op, budget %.0f", got, budget)
	}
	before := clock.Spawned()
	dequeue()
	if n := clock.Spawned() - before; n != 0 {
		t.Errorf("a vanilla dequeue starts %d actors, want 0", n)
	}
	clock.Drain()
}
