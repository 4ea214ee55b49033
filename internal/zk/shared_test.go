package zk

import (
	"context"
	"runtime"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
)

// TestQueueItemsAreCopiedOnceAndShared pins the value contract
// (binding.Result) for the queue: an item is copied once, where it enters
// the store (the queue client's enqueue, Bootstrap), clipped to cap == len;
// the proposal, all three servers' znodes and every view of the element —
// the enqueue's own and the dequeue's — are that one buffer, which nothing
// writes into, so the caller's buffer is the caller's again after the call
// and a retained view outlives the element's znode.
func TestQueueItemsAreCopiedOnceAndShared(t *testing.T) {
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	stock := []byte("stocked")
	e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: stock, Sequential: true})
	copy(stock, "XXXXXXX")

	c := binding.NewClient(NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK)))
	ctx := context.Background()
	item := []byte("enqueued")
	enq := binding.Invoke[binding.Item](ctx, c, binding.Enqueue{Queue: "t", Item: item})
	if _, err := enq.Final(ctx); err != nil {
		t.Fatal(err)
	}
	copy(item, "XXXXXXXX")
	clock.Drain() // let the commit reach every server

	enqViews := enq.Views()
	if len(enqViews) != 2 {
		t.Fatalf("enqueue delivered %d views, want preliminary + final", len(enqViews))
	}
	path := "/queues/t/" + enqViews[1].Value.ID
	for _, region := range e.order {
		data, err := e.Server(region).Tree().Get(path)
		if err != nil || string(data) != "enqueued" {
			t.Fatalf("server %s holds %q, %v after the caller reused its buffer, want enqueued", region, data, err)
		}
		if &data[0] != &enqViews[1].Value.Data[0] {
			t.Errorf("server %s holds a copy of the item: the znodes and the views share one buffer", region)
		}
		if cap(data) != len(data) {
			t.Errorf("server %s: stored item has cap %d, len %d", region, cap(data), len(data))
		}
	}
	if &enqViews[0].Value.Data[0] != &enqViews[1].Value.Data[0] {
		t.Error("the enqueue's two views do not share the item's bytes")
	}

	for _, want := range []string{"stocked", "enqueued"} {
		deq := binding.Invoke[binding.Item](ctx, c, binding.Dequeue{Queue: "t"})
		if _, err := deq.Final(ctx); err != nil {
			t.Fatal(err)
		}
		for i, v := range deq.Views() {
			if d := v.Value.Data; string(d) != want || cap(d) != len(d) {
				t.Errorf("dequeue view %d = %q (cap %d), want %q with cap == len", i, d, cap(d), want)
			}
		}
	}
	clock.Drain()
	if _, err := e.Leader().Tree().Get(path); err == nil {
		t.Fatal("the dequeued element's znode is still there")
	}
	if got := enqViews[1].Value.Data; string(got) != "enqueued" {
		t.Errorf("view retained past the element's delete now reads %q, want enqueued", got)
	}
}

// stallFirst is a netsim.Interceptor that holds the first n messages of one
// directed replica link until heal fires and delivers everything else.
type stallFirst struct {
	from, to netsim.Region
	n        int
	heal     *netsim.Event
}

func (s *stallFirst) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if s.n > 0 && from == s.from && to == s.to && class == netsim.LinkReplica {
		s.n--
		return netsim.VerdictStall, 1
	}
	return netsim.VerdictDeliver, 1
}

func (s *stallFirst) Changed() *netsim.Event { return s.heal }

// held counts the records on a free list: it takes them all and puts them
// back in the order it found them.
func held[T any](l *netsim.FreeList[T]) int {
	var taken []*T
	for x := l.Take(); x != nil; x = l.Take() {
		taken = append(taken, x)
	}
	for i := len(taken) - 1; i >= 0; i-- {
		l.Put(taken[i])
	}
	return len(taken)
}

// TestStragglerLegKeepsItsProposal pins the proposal record's lifetime (run
// it with -race -count=20). A round returns on a majority, so a follower leg
// may outlive it: one stalled on its way out still holds its record — and the
// ack it will put — while later rounds run on other records. After the heal
// it recycles the record with the unclaimed ack drained: were it left in the
// queue, the next round on that record would count it and return before any
// follower had answered.
func TestStragglerLegKeepsItsProposal(t *testing.T) {
	base := runtime.NumGoroutine()
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	heal := clock.NewEvent()
	// The leader's proposals to its far follower: the first one stalls.
	e.tr.SetInterceptor(&stallFirst{from: netsim.IRL, to: netsim.VRG, n: 1, heal: heal})
	client := binding.NewClient(NewBinding(NewQueueClient(e, netsim.IRL, netsim.IRL)))
	quorumRTT := netsim.DefaultLatencies().RTT(netsim.IRL, netsim.FRK)

	enqueue := func(i int) {
		t.Helper()
		start := clock.Now()
		if err := invokeStrong(client, binding.Enqueue{Queue: "t", Item: []byte{byte(i)}}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if took := clock.Now() - start; took < quorumRTT/2 {
			t.Errorf("enqueue %d committed in %v, under half a round trip to the nearest follower (%v): it counted a stale ack", i, took, quorumRTT)
		}
		// Let the round's own far leg come home, so that only the stalled
		// one is ever left holding a record.
		clock.Sleep(300 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		enqueue(i)
	}
	if got := held(&e.proposals); got != 1 {
		t.Errorf("%d proposal records free while the first round's straggler still runs, want the one the later rounds shared", got)
	}
	heal.Fire()
	clock.Drain()
	if got := held(&e.proposals); got != 2 {
		t.Errorf("%d proposal records free after the heal, want 2: the most ever in use at once", got)
	}
	for i := 4; i < 8; i++ { // both records go round again
		enqueue(i)
	}
	clock.Drain()
	if n := clock.Parked(); n != 0 {
		t.Errorf("%d actors still parked after Drain", n)
	}
	for _, region := range e.order {
		if kids, _ := e.Server(region).Tree().Children("/queues/t"); len(kids) != 8 {
			t.Errorf("server %s holds %d of the 8 elements", region, len(kids))
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines: %d after Drain, %d before the world", n, base)
	}
}
