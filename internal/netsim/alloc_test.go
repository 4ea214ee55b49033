//go:build !race

package netsim

import (
	"testing"
	"time"
)

// TestAllocGateRunAfterSteadyState is the scheduler's allocation-regression
// gate (run by CI without -race): once the timer heap and the vactor
// freelist are warm, arming a callback timer allocates nothing, and a full
// arm-dispatch-sleep cycle — callback fires, root actor parks and wakes —
// allocates nothing either. This is what lets million-message runs hold a
// flat heap profile.
func TestAllocGateRunAfterSteadyState(t *testing.T) {
	c := NewVirtualClock()
	fn := func() {}

	// Warm: grow the timer heap past anything AllocsPerRun will push, and
	// seed the vactor freelist.
	for i := 0; i < 4096; i++ {
		c.RunAfter(time.Millisecond, fn)
	}
	c.Drain()
	c.Sleep(time.Millisecond)

	if got := testing.AllocsPerRun(2000, func() {
		c.RunAfter(time.Millisecond, fn)
	}); got != 0 {
		t.Errorf("RunAfter steady-state allocs/op = %v, want 0", got)
	}
	c.Drain()

	if got := testing.AllocsPerRun(2000, func() {
		c.RunAfter(time.Millisecond, fn)
		c.Sleep(2 * time.Millisecond)
	}); got != 0 {
		t.Errorf("RunAfter+Sleep cycle allocs/op = %v, want 0", got)
	}
}

// TestAllocGateTimer: arming, stopping and ringing a Timer allocate
// nothing — the alarm is the owner's object, not a closure.
func TestAllocGateTimer(t *testing.T) {
	c := NewVirtualClock()
	var tm, stopped Timer
	var a benchAlarm
	c.Sleep(time.Millisecond) // seed the vactor freelist
	if got := testing.AllocsPerRun(2000, func() {
		c.ArmAfter(&stopped, time.Second, a)
		c.ArmAfter(&tm, time.Millisecond, a)
		c.StopTimer(&stopped)
		c.Sleep(2 * time.Millisecond)
	}); got != 0 {
		t.Errorf("Timer arm+stop+ring cycle allocs/op = %v, want 0", got)
	}
}

// TestAllocGateQueueHandoff: a warm ready-queue handoff (Put to a waiting
// actor, token round trip) must not allocate on the scheduler's side. The
// single allocation budgeted here is the interface boxing of the queue
// item itself, which belongs to the caller's payload, not the scheduler —
// struct{}{} boxes for free.
func TestAllocGateQueueHandoff(t *testing.T) {
	c := NewVirtualClock()
	ping, pong := c.NewQueue(), c.NewQueue()
	c.Go(func() {
		for {
			if ping.Get() == nil {
				return
			}
			pong.Put(struct{}{})
		}
	})
	tok := struct{}{}
	// Warm both waiter paths and the freelist.
	for i := 0; i < 64; i++ {
		ping.Put(tok)
		pong.Get()
	}
	if got := testing.AllocsPerRun(2000, func() {
		ping.Put(tok)
		pong.Get()
	}); got != 0 {
		t.Errorf("queue handoff allocs/op = %v, want 0", got)
	}
	ping.Put(nil)
	c.Drain()
}

// TestAllocGateActorSpawn: with a worker parked in the idle pool, starting
// an actor and running it to its exit allocates nothing on the scheduler's
// side — no goroutine start, no closure, no fresh rendezvous channel. The
// body is a prebuilt func, so the caller contributes nothing either.
func TestAllocGateActorSpawn(t *testing.T) {
	c := NewVirtualClock()
	ran := 0
	fn := func() { ran++ }
	cycle := func() {
		c.Go(fn)
		c.Sleep(time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(2000, cycle); got != 0 {
		t.Errorf("warm Go+exit allocs/op = %v, want 0", got)
	}
	if ran < 2064 {
		t.Fatalf("only %d actors ran", ran)
	}
	c.Drain()
}

// TestAllocGateRoundTrip: a warm round trip — step bound, timer heap, vactor
// and event free lists populated — allocates nothing: not on the transport's
// fast path, not when its request is dropped once and retransmitted, and not
// when it stalls across two fault transitions, the first of which heals
// nothing (it queues its one step on the interceptor's event: no closure).
func TestAllocGateRoundTrip(t *testing.T) {
	c := NewVirtualClock()
	tr := NewTransport(c, DefaultLatencies(), NewMeter(), 1)
	server := NewServer(c, 2)
	l := &quietLeg{joined: c.NewQueue()}
	link := pairKey(FRK, IRL)
	f := &scriptedFaults{clock: c, epoch: c.NewEvent(), down: map[[2]Region]bool{}, lose: map[[2]Region]int{}}
	transition := func() {
		old := f.epoch
		f.epoch = c.NewEvent()
		old.Fire()
		old.Release()
	}
	heal := func() {
		f.down[link] = false
		transition()
	}
	trip := func() {
		l.trip.Start(tr, FRK, IRL, LinkReplica, 64, server, time.Millisecond, l)
		l.joined.Get()
	}
	for _, g := range []struct {
		name string
		run  func()
	}{
		{"fast path", trip},
		{"dropped once", func() {
			f.lose[link] = 1
			trip()
		}},
		{"stalled across two transitions", func() {
			f.down[link] = true
			c.RunAfter(time.Second, transition)
			c.RunAfter(2*time.Second, heal)
			start := c.Now()
			trip()
			if c.Now()-start < 2*time.Second {
				t.Fatal("the leg did not wait for the heal")
			}
		}},
	} {
		for i := 0; i < 64; i++ {
			g.run()
		}
		if got := testing.AllocsPerRun(200, g.run); got != 0 {
			t.Errorf("%s: a warm round trip allocates %v, want 0", g.name, got)
		}
		tr.SetInterceptor(f) // the fast path ran without
	}
	if tr.Meter().Dropped(LinkReplica).Messages == 0 {
		t.Error("no request was dropped")
	}
	c.Drain()
}

// quietLeg is an Exchange that only reports back.
type quietLeg struct {
	joined *Queue
	trip   RoundTrip
}

func (l *quietLeg) Serve() int { return 64 }
func (l *quietLeg) Done()      { l.joined.Put(nil) }
