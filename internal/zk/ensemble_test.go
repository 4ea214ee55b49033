package zk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

func newTestEnsemble(t *testing.T, correctable bool, leader netsim.Region) (*Ensemble, *netsim.Meter, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, 1)
	e, err := NewEnsemble(Config{
		Regions:      []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion: leader,
		Transport:    tr,
		Correctable:  correctable,
		ServiceTime:  50 * time.Microsecond,
		Workers:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, meter, clock
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(Config{}); err == nil {
		t.Error("missing transport accepted")
	}
	tr := netsim.NewTransport(netsim.NewVirtualClock(), netsim.DefaultLatencies(), nil, 1)
	if _, err := NewEnsemble(Config{Transport: tr}); err == nil {
		t.Error("empty regions accepted")
	}
	if _, err := NewEnsemble(Config{Transport: tr, Regions: []netsim.Region{netsim.FRK}, LeaderRegion: netsim.IRL}); err == nil {
		t.Error("foreign leader accepted")
	}
	if _, err := NewEnsemble(Config{Transport: tr, Regions: []netsim.Region{netsim.FRK, netsim.FRK}, LeaderRegion: netsim.FRK}); err == nil {
		t.Error("duplicate regions accepted")
	}
}

func TestProposeReplicatesInOrder(t *testing.T) {
	e, _, clock := newTestEnsemble(t, false, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/q"})
	qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
	const n = 10
	for i := 0; i < n; i++ {
		var final QueueView
		if err := qc.Enqueue("q", []byte{byte(i)}, false, func(v QueueView) { final = v }); err != nil {
			t.Fatal(err)
		}
		if final.Zxid == 0 {
			t.Fatal("zxid 0 for successful txn")
		}
	}
	// All servers converge to the same sorted child list once the async
	// commit broadcasts have been drained.
	clock.Drain()
	if kids, err := e.Server(netsim.VRG).Tree().Children("/queues/q"); err != nil || len(kids) != n {
		t.Fatalf("VRG never converged: %v, %v", kids, err)
	}
	want, _ := e.Leader().Tree().Children("/queues/q")
	for _, region := range e.order {
		got, err := e.Server(region).Tree().Children("/queues/q")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s children = %v, leader has %v", region, got, want)
		}
	}
}

// TestProposeFailFastNoCommit: a transaction the leader's prep-apply fails
// — a dequeue of a queue that does not exist — comes back with its error
// and consumes no zxid on any server.
func TestProposeFailFastNoCommit(t *testing.T) {
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
	if err := qc.Dequeue("missing", false, func(QueueView) {}); !errors.Is(err, ErrNoNode) {
		t.Errorf("err = %v", err)
	}
	clock.Drain()
	for _, region := range e.order {
		if z := e.Server(region).LastApplied(); z != 0 {
			t.Errorf("%s applied zxid %d: failed validation must not consume a zxid", region, z)
		}
	}
}

func TestDeliverCommitBuffersGaps(t *testing.T) {
	e, _, _ := newTestEnsemble(t, false, netsim.IRL)
	s := e.Server(netsim.FRK)
	// Deliver 2 before 1: nothing applies until 1 arrives.
	s.deliverCommit(2, s.dataEpoch, CreateTxn{Path: "/b"})
	if exists(s.Tree(), "/b") {
		t.Fatal("gap commit applied out of order")
	}
	s.deliverCommit(1, s.dataEpoch, CreateTxn{Path: "/a"})
	if !exists(s.Tree(), "/a") || !exists(s.Tree(), "/b") {
		t.Fatal("commits not applied after gap filled")
	}
	if s.LastApplied() != 2 {
		t.Errorf("lastApplied = %d", s.LastApplied())
	}
}

func TestWaitApplied(t *testing.T) {
	e, _, clock := newTestEnsemble(t, false, netsim.IRL)
	s := e.Server(netsim.FRK)
	woken := false
	done := clock.NewEvent()
	clock.Go(func() {
		s.waitApplied(1)
		woken = true
		done.Fire()
	})
	clock.Sleep(10 * time.Millisecond) // lets the waiter park
	if woken {
		t.Fatal("waitApplied returned before apply")
	}
	s.deliverCommit(1, s.dataEpoch, CreateTxn{Path: "/a"})
	done.Wait()
	if !woken {
		t.Fatal("waitApplied never woke")
	}
	// Already-applied zxid returns immediately.
	s.waitApplied(1)
}

// Property: any interleaving of commit deliveries applies in zxid order
// (the tree ends identical to sequential application).
func TestPropertyCommitOrderIndependence(t *testing.T) {
	f := func(perm []uint8) bool {
		n := len(perm)
		if n == 0 || n > 20 {
			return true
		}
		e, _, _ := newTestEnsemble(t, false, netsim.IRL)
		s := e.Server(netsim.FRK)
		// Build a permutation of 1..n from perm.
		order := make([]int, n)
		for i := range order {
			order[i] = i + 1
		}
		for i := range order {
			j := int(perm[i]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		mkdirs(t, s.Tree(), "/q")
		s.deliverCommit(0, s.dataEpoch, CreateTxn{Path: "/unused"}) // no-op guard: zxid 0 ignored by lastApplied
		for _, z := range order {
			s.deliverCommit(uint64(z), s.dataEpoch, CreateTxn{Path: "/q/q-", Data: []byte{byte(z)}, Sequential: true})
		}
		// After all deliveries the items must be in zxid order: item i has
		// sequence number i-1 and data byte i.
		for i := 1; i <= n; i++ {
			path := fmt.Sprintf("/q/q-%010d", i-1)
			data, err := s.Tree().Get(path)
			if err != nil || len(data) != 1 || data[0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEnqueueVanillaLatency(t *testing.T) {
	// Client IRL, contact follower FRK, leader IRL (paper Fig 9 group 1):
	// ~10+10 (client RTT) + 10+10 (forward+commit) + quorum RTT(IRL-FRK=20)
	// => around 60ms.
	e, _, clock := newTestEnsemble(t, false, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	qc := NewQueueClient(e, netsim.IRL, netsim.FRK)
	sw := clock.StartStopwatch()
	var views []QueueView
	if err := qc.Enqueue("t", []byte("ticket-001"), false, func(v QueueView) { views = append(views, v) }); err != nil {
		t.Fatal(err)
	}
	lat := sw.ElapsedModel()
	if lat < 45*time.Millisecond || lat > 110*time.Millisecond {
		t.Errorf("vanilla enqueue latency = %v, want ~60ms", lat)
	}
	if len(views) != 1 || !views[0].Final || views[0].Element.Seq != 0 {
		t.Errorf("views = %+v", views)
	}
}

func TestEnqueueCZKPrelimGap(t *testing.T) {
	// CZK: preliminary latency = client<->contact RTT (20ms); final as
	// vanilla (~60ms). Gap ~40ms (paper Fig 9).
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	qc := NewQueueClient(e, netsim.IRL, netsim.FRK)
	sw := clock.StartStopwatch()
	type timed struct {
		v  QueueView
		at time.Duration
	}
	var views []timed
	if err := qc.Enqueue("t", []byte("ticket-001"), true, func(v QueueView) {
		views = append(views, timed{v, sw.ElapsedModel()})
	}); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("views = %+v", views)
	}
	prelim, final := views[0], views[1]
	if prelim.v.Final || prelim.v.Level != core.LevelWeak {
		t.Errorf("prelim = %+v", prelim.v)
	}
	if prelim.at < 12*time.Millisecond || prelim.at > 45*time.Millisecond {
		t.Errorf("prelim latency = %v, want ~20ms", prelim.at)
	}
	if gap := final.at - prelim.at; gap < 25*time.Millisecond {
		t.Errorf("prelim/final gap = %v, want ~40ms", gap)
	}
	if prelim.v.Element.Name != final.v.Element.Name {
		t.Errorf("prediction %q != actual %q", prelim.v.Element.Name, final.v.Element.Name)
	}
}

func TestEnqueueLeaderContactSmallGap(t *testing.T) {
	// Client IRL connected to the leader in IRL: preliminary ~2ms, final
	// ~2+20 (quorum to FRK) ~22ms (paper Fig 9 group 2). The virtual clock
	// resolves millisecond-level assertions exactly.
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	sw := clock.StartStopwatch()
	var at []time.Duration
	if err := qc.Enqueue("t", []byte("x"), true, func(QueueView) {
		at = append(at, sw.ElapsedModel())
	}); err != nil {
		t.Fatal(err)
	}
	if at[0] > 15*time.Millisecond {
		t.Errorf("prelim latency = %v, want ~2ms", at[0])
	}
	if at[1] < 15*time.Millisecond || at[1] > 60*time.Millisecond {
		t.Errorf("final latency = %v, want ~22ms", at[1])
	}
}

func TestDequeueCZKAtomicNoDuplicates(t *testing.T) {
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	const n = 30
	for i := 0; i < n; i++ {
		e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte{byte(i)}, Sequential: true})
	}
	var mu sync.Mutex
	got := map[string]int{}
	wg := clock.NewGroup()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
			for {
				var final QueueView
				if err := qc.Dequeue("t", true, func(v QueueView) {
					if v.Final {
						final = v
					}
				}); err != nil {
					t.Error(err)
					return
				}
				if final.Element == nil {
					return
				}
				mu.Lock()
				got[final.Element.Name]++
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("dequeued %d distinct elements, want %d", len(got), n)
	}
	for name, count := range got {
		if count != 1 {
			t.Errorf("element %s dequeued %d times", name, count)
		}
	}
}

func TestDequeueRecipeContentionNoDuplicates(t *testing.T) {
	e, _, clock := newTestEnsemble(t, false, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	const n = 20
	for i := 0; i < n; i++ {
		e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte{byte(i)}, Sequential: true})
	}
	var mu sync.Mutex
	got := map[string]int{}
	wg := clock.NewGroup()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
			for {
				var final QueueView
				if err := qc.Dequeue("t", false, func(v QueueView) { final = v }); err != nil {
					t.Error(err)
					return
				}
				if final.Element == nil {
					return
				}
				mu.Lock()
				got[final.Element.Name]++
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("dequeued %d distinct elements, want %d", len(got), n)
	}
	for name, count := range got {
		if count != 1 {
			t.Errorf("element %s dequeued %d times (recipe must not double-dequeue)", name, count)
		}
	}
}

func TestDequeueRecipeBandwidthGrowsWithQueue(t *testing.T) {
	cost := func(size int) int64 {
		e, meter, _ := newTestEnsemble(t, false, netsim.IRL)
		e.Bootstrap(CreateTxn{Path: "/queues"})
		e.Bootstrap(CreateTxn{Path: "/queues/t"})
		for i := 0; i < size; i++ {
			e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte("tkt"), Sequential: true})
		}
		qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
		base := meter.Class(netsim.LinkClient).Bytes
		if err := qc.Dequeue("t", false, func(QueueView) {}); err != nil {
			t.Fatal(err)
		}
		return meter.Class(netsim.LinkClient).Bytes - base
	}
	small, large := cost(50), cost(500)
	// Vanilla getChildren returns the whole listing: 10x queue => much more
	// data (Fig 10's ZK growth).
	if large < small+4000 {
		t.Errorf("dequeue bytes: queue 50 -> %d, queue 500 -> %d; expected strong growth", small, large)
	}
}

func TestDequeueCZKBandwidthConstant(t *testing.T) {
	cost := func(size int) int64 {
		e, meter, _ := newTestEnsemble(t, true, netsim.IRL)
		e.Bootstrap(CreateTxn{Path: "/queues"})
		e.Bootstrap(CreateTxn{Path: "/queues/t"})
		for i := 0; i < size; i++ {
			e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte("tkt"), Sequential: true})
		}
		qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
		base := meter.Class(netsim.LinkClient).Bytes
		if err := qc.Dequeue("t", true, func(QueueView) {}); err != nil {
			t.Fatal(err)
		}
		return meter.Class(netsim.LinkClient).Bytes - base
	}
	small, large := cost(50), cost(500)
	if small != large {
		t.Errorf("CZK dequeue bytes must be independent of queue size: 50 -> %d, 500 -> %d", small, large)
	}
}

func TestEnqueueBandwidthMatchesPaper(t *testing.T) {
	// §6.2.2: vanilla enqueue ~270 B/op; with the preliminary response
	// ~400 B/op (+~50%).
	run := func(correctable bool) int64 {
		e, meter, _ := newTestEnsemble(t, correctable, netsim.IRL)
		e.Bootstrap(CreateTxn{Path: "/queues"})
		e.Bootstrap(CreateTxn{Path: "/queues/t"})
		qc := NewQueueClient(e, netsim.IRL, netsim.FRK)
		base := meter.Class(netsim.LinkClient).Bytes
		if err := qc.Enqueue("t", []byte("ticket-0000000001ab"), correctable, func(QueueView) {}); err != nil {
			t.Fatal(err)
		}
		return meter.Class(netsim.LinkClient).Bytes - base
	}
	vanilla, czk := run(false), run(true)
	if vanilla < 230 || vanilla > 320 {
		t.Errorf("vanilla enqueue = %d B/op, want ~270", vanilla)
	}
	if czk < 350 || czk > 470 {
		t.Errorf("CZK enqueue = %d B/op, want ~400", czk)
	}
	ratio := float64(czk) / float64(vanilla)
	if ratio < 1.3 || ratio > 1.7 {
		t.Errorf("CZK/vanilla enqueue ratio = %.2f, want ~1.5", ratio)
	}
}

func TestQueueBindingInvoke(t *testing.T) {
	e, _, _ := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte("first"), Sequential: true})
	b := NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK))
	q := NewQueue(b)

	cor := q.Dequeue(context.Background(), "t")
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := v.Value
	if !res.Exists || string(res.Data) != "first" {
		t.Errorf("final = %+v", res)
	}
	views := cor.Views()
	if len(views) != 2 || views[0].Level != core.LevelWeak {
		t.Errorf("views = %+v", views)
	}
	prelim := views[0].Value
	if !prelim.EqualValue(res) {
		t.Errorf("prelim %v != final %v in uncontended dequeue", prelim, res)
	}
}

func TestQueueBindingVanillaSingleLevel(t *testing.T) {
	e, _, _ := newTestEnsemble(t, false, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	b := NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK))
	if got := b.ConsistencyLevels(); len(got) != 1 || got[0] != core.LevelStrong {
		t.Fatalf("vanilla levels = %v", got)
	}
	cor := binding.Invoke[binding.Item](context.Background(), binding.NewClient(b), binding.Enqueue{Queue: "t", Item: []byte("x")})
	if _, err := cor.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(cor.Views()) != 1 {
		t.Errorf("vanilla invoke views = %+v", cor.Views())
	}
}

func TestQueueBindingInvokeWeakBackground(t *testing.T) {
	e, _, clock := newTestEnsemble(t, true, netsim.IRL)
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/t"})
	for i := 0; i < 5; i++ {
		e.Bootstrap(CreateTxn{Path: "/queues/t/q-", Data: []byte{byte(i)}, Sequential: true})
	}
	b := NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK))
	client := binding.NewClient(b)
	cor := binding.InvokeWeak[binding.Item](context.Background(), client, binding.Dequeue{Queue: "t"})
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := v.Value
	if !res.Exists || res.ID != "q-0000000000" {
		t.Errorf("weak dequeue = %+v", res)
	}
	// The dequeue itself completes in the background: after draining, the
	// leader has only 4 elements.
	clock.Drain()
	if kids, _ := e.Leader().Tree().Children("/queues/t"); len(kids) != 4 {
		t.Fatalf("background dequeue never committed; leader has %d elements", len(kids))
	}
}

func TestQueueBindingUnsupportedOp(t *testing.T) {
	e, _, _ := newTestEnsemble(t, true, netsim.IRL)
	b := NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK))
	client := binding.NewClient(b)
	if _, err := binding.Invoke[[]byte](context.Background(), client, binding.Get{Key: "k"}).Final(context.Background()); err == nil {
		t.Error("Get on a queue binding should fail")
	}
}

func TestDequeueEmptyQueue(t *testing.T) {
	for _, correctable := range []bool{false, true} {
		e, _, _ := newTestEnsemble(t, correctable, netsim.IRL)
		e.Bootstrap(CreateTxn{Path: "/queues"})
		e.Bootstrap(CreateTxn{Path: "/queues/t"})
		qc := NewQueueClient(e, netsim.IRL, netsim.FRK)
		var final QueueView
		if err := qc.Dequeue("t", correctable, func(v QueueView) {
			if v.Final {
				final = v
			}
		}); err != nil {
			t.Fatal(err)
		}
		if final.Element != nil || final.Remaining != 0 {
			t.Errorf("correctable=%v: empty dequeue = %+v", correctable, final)
		}
	}
}

// TestMissingQueueRepliesWithNoNode drives an enqueue, a CZK dequeue and a
// recipe dequeue at a queue that does not exist, through a contact that is
// not the leader, with the preliminary asked for and not. The contact cannot
// simulate either CZK operation and the leader fails them fast, but the
// client still hears back: each call returns ErrNoNode after a full
// client<->contact round trip whose reply is on the client link, delivers no
// view and leaves nothing parked; through the binding the Correctable fails
// with ErrNoNode.
func TestMissingQueueRepliesWithNoNode(t *testing.T) {
	for _, tc := range []struct {
		name        string
		correctable bool
		op          binding.OperationFor[binding.Item]
		request     int // the request's payload on the client link
		reply       int // the error reply's size
	}{
		{"enqueue", true, binding.Enqueue{Queue: "t", Item: []byte("x")}, len("/queues/t/q-x"), responseSize(elementPayload(nil))},
		{"dequeue", true, binding.Dequeue{Queue: "t"}, len("/queues/t"), responseSize(elementPayload(nil))},
		{"recipe", false, binding.Dequeue{Queue: "t"}, len("/queues/t"), childrenResponseSize(nil)},
	} {
		for _, prelim := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prelim=%v", tc.name, prelim), func(t *testing.T) {
				e, _, clock := newTestEnsemble(t, tc.correctable, netsim.IRL)
				e.Bootstrap(CreateTxn{Path: "/queues"})
				qc := NewQueueClient(e, netsim.IRL, netsim.FRK)
				tr := e.Transport()
				tr.JitterFrac, tr.TailMeanFrac = 0, 0 // every hop takes its nominal one-way delay
				before := tr.Meter().Class(netsim.LinkClient)
				start := clock.Now()
				views := 0
				onView := func(QueueView) { views++ }
				var err error
				switch op := tc.op.(type) {
				case binding.Enqueue:
					err = qc.Enqueue(op.Queue, op.Item, prelim, onView)
				case binding.Dequeue:
					err = qc.Dequeue(op.Queue, prelim, onView)
				}
				took := clock.Now() - start
				after := tr.Meter().Class(netsim.LinkClient)
				if !errors.Is(err, ErrNoNode) {
					t.Errorf("err = %v, want ErrNoNode", err)
				}
				if views != 0 {
					t.Errorf("%d views delivered, want none", views)
				}
				wantBytes := int64(requestSize(tc.request) + tc.reply)
				if msgs, bytes := after.Messages-before.Messages, after.Bytes-before.Bytes; msgs != 2 || bytes != wantBytes {
					t.Errorf("client link carried %d messages, %d bytes; want the request and the error reply, 2 and %d", msgs, bytes, wantBytes)
				}
				if rtt := tr.Model().RTT(qc.Region, qc.Contact); took < rtt {
					t.Errorf("returned %v after submission, under one client<->contact round trip (%v)", took, rtt)
				}

				var cor *core.Correctable[binding.Item]
				c := binding.NewClient(NewBinding(qc))
				if prelim {
					cor = binding.Invoke[binding.Item](context.Background(), c, tc.op)
				} else {
					cor = binding.InvokeStrong[binding.Item](context.Background(), c, tc.op)
				}
				if _, err := cor.Final(context.Background()); !errors.Is(err, ErrNoNode) {
					t.Errorf("through the binding: err = %v, want ErrNoNode", err)
				}
				if n := len(cor.Views()); n != 0 {
					t.Errorf("through the binding: %d views, want none", n)
				}
				clock.Drain()
				if n := clock.Parked(); n != 0 {
					t.Errorf("%d actors parked after Drain", n)
				}
			})
		}
	}
}

// TestFaultFreeEnsembleArmsNothing: without a fault injector the election
// arms no timer and keeps nothing past the operations that used it. The
// client sits far from its contact, so each operation's final view reaches
// it after every leg and commit of its round has landed, and the heartbeat
// and election timeouts outlast the run: the clock drains at the instant the
// last operation completed, which any timer armed at construction or on the
// way would carry past. No election is logged, no forward pends, and no
// server keeps a round.
func TestFaultFreeEnsembleArmsNothing(t *testing.T) {
	for _, correctable := range []bool{true, false} {
		clock := netsim.NewVirtualClock()
		e, err := NewEnsemble(Config{
			Regions:           []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
			LeaderRegion:      netsim.IRL,
			Transport:         netsim.NewTransport(clock, netsim.DefaultLatencies(), nil, 1),
			Correctable:       correctable,
			HeartbeatInterval: time.Minute,
			ElectionTimeout:   time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Bootstrap(CreateTxn{Path: "/queues"})
		e.Bootstrap(CreateTxn{Path: "/queues/q"})
		qc := NewQueueClient(e, netsim.NCA, netsim.FRK)
		for i := 0; i < 4; i++ {
			if err := qc.Enqueue("q", []byte{byte(i)}, true, func(QueueView) {}); err != nil {
				t.Fatalf("correctable=%v: enqueue %d: %v", correctable, i, err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := qc.Dequeue("q", true, func(QueueView) {}); err != nil {
				t.Fatalf("correctable=%v: dequeue %d: %v", correctable, i, err)
			}
		}
		if e.elect.running {
			t.Fatalf("correctable=%v: the elector runs without faults; its timers would keep Drain from returning", correctable)
		}
		done := clock.Now()
		clock.Drain()
		if now := clock.Now(); now != done {
			t.Errorf("correctable=%v: the clock drained at %v, past the last operation's end at %v", correctable, now, done)
		}
		if recs := e.Elections(); len(recs) != 0 {
			t.Errorf("correctable=%v: Elections() = %v, want none", correctable, recs)
		}
		if held := e.PendingForwards(); len(held) != 0 {
			t.Errorf("correctable=%v: PendingForwards() = %v, want none", correctable, held)
		}
		for _, region := range e.order {
			if n := len(e.servers[region].election.rounds); n != 0 {
				t.Errorf("correctable=%v: %s keeps %d rounds, want none", correctable, region, n)
			}
		}
	}
}
