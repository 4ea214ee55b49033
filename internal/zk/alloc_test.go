//go:build !race

package zk

import (
	"context"
	"strings"
	"testing"

	"correctables/internal/binding"
	"correctables/internal/history"
	"correctables/internal/netsim"
)

// TestAllocGateQueueOps pins what one queue operation through the Binding
// costs end to end — client library, binding, contact server, forwarding to
// the leader, one propose round, commit delivery on all three servers, two
// views — on a warm virtual clock (worker pool, event, record and proposal
// free lists populated). The budgets are absolute, and what is left is what
// the operation creates or the caller keeps:
//
//   - enqueue, 14: from the library, the boxed operation, the Correctable
//     and its result callback; the item's one copy; the queue's item
//     prefix; the boxed transaction; the contact's predicted name and the
//     preliminary element; on each of the three servers the sequential
//     path (the znode itself is stored by value); the final element; the
//     two views' boxes on the binding wire. (40 before items were copied
//     once and shared, names were formatted without fmt, and the binding
//     and the propose round ran on recycled records; 20 before the
//     contact's simulation read the queue's directory off the item prefix;
//     19 before the operation became one record; 17 while each server
//     allocated its znode.)
//   - dequeue, 9: the library's three, the queue's directory, the boxed
//     transaction, the preliminary element, the final element (built once
//     from the head the leader's transaction returned by value) and the two
//     view boxes. Every server removes the head in place (Tree.RemoveHead),
//     with no path or element of its own. (26, then 16, then 14 while each
//     server built the head's path and an element.)
//
// Observed through a history.Recorder, each costs one allocation more, the
// invocation's record: the observer gets each view's wire box (no box of
// its own) and the recorder stores the op and its item notes in its arenas.
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
	b := NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK))
	rec := history.NewRecorder()
	plain, observed := binding.NewClient(b), binding.NewClient(b, binding.WithObserver(rec), binding.WithLabel("observed"))
	ctx := context.Background()
	item := []byte("payload")

	enqueue := func(c *binding.Client) func() {
		return func() {
			if _, err := binding.Invoke[binding.Item](ctx, c, binding.Enqueue{Queue: "t", Item: item}).Final(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	dequeue := func(c *binding.Client) func() {
		return func() {
			v, err := binding.Invoke[binding.Item](ctx, c, binding.Dequeue{Queue: "t"}).Final(ctx)
			if err != nil || !v.Value.Exists {
				t.Fatalf("dequeue = %+v, %v", v.Value, err)
			}
		}
	}
	// The dequeues of the measured runs need elements: stock the queue, and
	// warm every free list and the recorder's first arena chunks on the way.
	for i := 0; i < 1000; i++ {
		enqueue(plain)()
	}
	for i := 0; i < 32; i++ {
		dequeue(plain)()
		enqueue(observed)()
		dequeue(observed)()
	}
	measure := func(name string, op func(), budget float64) float64 {
		got := testing.AllocsPerRun(300, op)
		t.Logf("allocs/%s: %.1f", name, got)
		if got > budget {
			t.Errorf("%s allocates %.1f/op, budget %.0f", name, got, budget)
		}
		return got
	}
	enq := measure("enqueue", enqueue(plain), 14)
	deq := measure("dequeue", dequeue(plain), 9)
	measure("observed enqueue", enqueue(observed), enq+1)
	measure("observed dequeue", dequeue(observed), deq+1)
	ops := rec.Ops()
	if want := 2*32 + 2*301; len(ops) != want {
		t.Fatalf("the recorder holds %d ops, want %d", len(ops), want)
	}
	for _, op := range ops {
		if v, ok := op.FinalView(); !ok || !strings.HasPrefix(v.Note, "q-") {
			t.Fatalf("recorded %s without its element's note: %s", op.Name, op.String())
		}
	}
	before := clock.Spawned()
	enqueue(plain)()
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
