package netsim

import (
	"testing"
	"time"
)

// BenchmarkSchedulerHandoff measures one full token round trip between two
// actors (Put wakes the peer, Get parks the caller — two handoffs per
// iteration). This is the unit cost every blocking operation in the
// simulation pays.
func BenchmarkSchedulerHandoff(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Put(tok)
		pong.Get()
	}
	b.StopTimer()
	ping.Put(nil)
	c.Drain()
}

// BenchmarkActorSpawn measures the life of one short actor: Go, the token
// reaching it, the body, the exit. The root spawns it and sleeps past it,
// so the actor's worker is back in the idle pool before the next spawn —
// the steady state of a closed-loop workload, where every Go is served by
// a parked worker. spawns/op stays exactly 1: Spawned counts actors, not
// goroutine starts.
func BenchmarkActorSpawn(b *testing.B) {
	c := NewVirtualClock()
	ran := 0
	fn := func() { ran++ }
	spawnedBefore := c.Spawned()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Go(fn)
		c.Sleep(time.Microsecond)
	}
	b.StopTimer()
	c.Drain()
	if ran != b.N {
		b.Fatalf("%d of %d actors ran", ran, b.N)
	}
	if spawns := c.Spawned() - spawnedBefore; spawns != uint64(b.N) {
		b.Fatalf("Spawned counted %d actors over %d Go calls", spawns, b.N)
	}
}

// BenchmarkAsyncSend compares the two ways to deliver a fire-and-forget
// simulated message: the callback-timer path Transport.Send now uses
// (zero goroutines, zero channel rendezvous) against the goroutine-per-
// message shape it replaced (spawn an actor, sleep the delay, run the
// delivery). Both sub-benchmarks drain in batches so the timer heap stays
// warm and bounded, and both report measured goroutine spawns per message.
func BenchmarkAsyncSend(b *testing.B) {
	const batch = 1024
	run := func(b *testing.B, wantSpawnsPerOp uint64, send func(c *VirtualClock, tr *Transport, fn func())) {
		c := NewVirtualClock()
		tr := NewTransport(c, DefaultLatencies(), NewMeter(), 1)
		delivered := 0
		fn := func() { delivered++ }
		spawnedBefore := c.Spawned()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send(c, tr, fn)
			if i%batch == batch-1 {
				c.Drain()
			}
		}
		c.Drain()
		b.StopTimer()
		if delivered != b.N {
			b.Fatalf("delivered %d of %d messages", delivered, b.N)
		}
		spawns := c.Spawned() - spawnedBefore
		if spawns != wantSpawnsPerOp*uint64(b.N) {
			b.Fatalf("spawned %d goroutines over %d messages, want %d/op", spawns, b.N, wantSpawnsPerOp)
		}
		b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
	}

	b.Run("callback", func(b *testing.B) {
		run(b, 0, func(c *VirtualClock, tr *Transport, fn func()) {
			tr.Send(IRL, FRK, LinkReplica, 64, fn)
		})
	})
	b.Run("goroutine-baseline", func(b *testing.B) {
		// The PR 1 shape of Transport.Send: one actor spawn plus two channel
		// rendezvous per message.
		run(b, 1, func(c *VirtualClock, tr *Transport, fn func()) {
			tr.Meter().Account(LinkReplica, 64)
			d := tr.sample(IRL, FRK)
			c.Go(func() {
				c.Sleep(d)
				fn()
			})
		})
	})
}

// BenchmarkTimerHeap measures raw arm+fire throughput of the callback
// timer queue at a large outstanding-timer count, the regime a
// million-actor run puts the scheduler in.
func BenchmarkTimerHeap(b *testing.B) {
	c := NewVirtualClock()
	fn := func() {}
	// Keep 64k timers outstanding so push/pop work at realistic depth.
	const depth = 1 << 16
	for i := 0; i < depth; i++ {
		c.RunAfter(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunAfter(time.Duration(depth)*time.Microsecond, fn)
		if i%depth == depth-1 {
			c.Drain()
			for j := 0; j < depth; j++ {
				c.RunAfter(time.Duration(j)*time.Microsecond, fn)
			}
		}
	}
	b.StopTimer()
	c.Drain()
}

// benchAlarm is a Timer's alarm that does nothing.
type benchAlarm struct{}

func (benchAlarm) Ring() {}

// BenchmarkTimerHeapCancel measures the client library's deadline shape on
// zk's scale: one 5 s deadline armed per operation and stopped about 100 ms
// of model time later, when the operation closes, with about 5k pending.
// Fifty operations start per model millisecond, so the timer re-armed each
// iteration is the one armed 5k operations (100 ms) before: it is stopped
// and armed again, and no deadline ever rings.
func BenchmarkTimerHeapCancel(b *testing.B) {
	c := NewVirtualClock()
	const pending, perMs = 5000, 50
	timers := make([]Timer, pending)
	var a benchAlarm
	for i := range timers {
		c.ArmAfter(&timers[i], 5*time.Second, a)
		if i%perMs == perMs-1 {
			c.Sleep(time.Millisecond)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &timers[i%pending]
		c.StopTimer(t)
		c.ArmAfter(t, 5*time.Second, a)
		if i%perMs == perMs-1 {
			c.Sleep(time.Millisecond)
		}
	}
	b.StopTimer()
	if n := c.PendingTimers(); n != pending {
		b.Fatalf("%d timers pending, want %d", n, pending)
	}
	for i := range timers {
		c.StopTimer(&timers[i])
	}
	c.Drain()
}
