package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// TestWorldQuiescenceReportsParkedActor: run's post-condition. The stranded
// actor stands for the protocol actor of an operation that waits for a
// message a fault destroyed: the population that issued it timed out and
// finished, so only the parked count can tell.
func TestWorldQuiescenceReportsParkedActor(t *testing.T) {
	w := newWorld(Config{Seed: 1}, nil, time.Second)
	w.spawn(func() { w.clock.Sleep(time.Millisecond) })
	if _, err := w.run(); err != nil {
		t.Fatalf("a world whose every actor finished: %v", err)
	}

	never := w.clock.NewEvent()
	w.clock.Go(never.Wait)
	w.spawn(func() { w.clock.Sleep(time.Millisecond) })
	_, err := w.run()
	if err == nil || !strings.Contains(err.Error(), "1 actor(s) still parked") {
		t.Fatalf("run() = %v, want the one parked actor reported", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mustRun returned from a world with a parked actor")
			}
		}()
		w.mustRun()
	}()

	never.Fire()
	if _, err := w.run(); err != nil {
		t.Errorf("after the event fired: %v", err)
	}
}

// strandOne is a netsim.Interceptor over a world's own (nil in a fault-free
// world): it stalls replica-link messages until one of their senders asks
// what to wait for, and hands that one an event no transition fires — a link
// that never heals, for exactly one synchronous message.
type strandOne struct {
	inner     netsim.Interceptor
	stranding bool
	never     *netsim.Event
}

func (s *strandOne) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if s.stranding && class == netsim.LinkReplica {
		return netsim.VerdictStall, 1
	}
	if s.inner == nil {
		return netsim.VerdictDeliver, 1
	}
	return s.inner.Intercept(from, to, class)
}

func (s *strandOne) Changed() *netsim.Event {
	if s.stranding {
		s.stranding = false
		return s.never
	}
	return s.inner.Changed()
}

// pingLeg is a netsim.Exchange with nothing to do at either end.
type pingLeg struct{ trip netsim.RoundTrip }

func (*pingLeg) Serve() int { return 8 }
func (*pingLeg) Done()      {}

// TestWorldQuiescenceReportsStrandedRoundTrip: a request/response leg is a
// record and no actor, and run's post-condition sees it all the same. A round
// trip stalled on a link that never heals fails the world; a hunt world in
// which one peer leg is stranded that way reports a quiescence finding, ahead
// of whatever its checkers say about the operations that did finish.
func TestWorldQuiescenceReportsStrandedRoundTrip(t *testing.T) {
	w := newWorld(Config{Seed: 1}, nil, time.Second)
	strand := &strandOne{stranding: true, never: w.clock.NewEvent()}
	w.tr.SetInterceptor(strand)
	var leg pingLeg
	leg.trip.Start(w.tr, netsim.FRK, netsim.IRL, netsim.LinkReplica, 8, netsim.NewServer(w.clock, 1), time.Millisecond, &leg)
	if _, err := w.run(); err == nil || !strings.Contains(err.Error(), "1 actor(s) still parked") {
		t.Fatalf("run() = %v, want the one stalled round trip reported", err)
	}
	strand.never.Fire()
	if _, err := w.run(); err != nil {
		t.Errorf("after the link healed: %v", err)
	}

	hw, err := newHuntWorld("tracks-mild", 42, false)
	if err != nil {
		t.Fatal(err)
	}
	hw.Queues = 0 // the first peer leg to leave is then a Cassandra coordinator's
	h := newWorld(Config{Seed: hw.Seed}, faults.Compose(hw.Tracks...), hw.Horizon)
	// Once the stores are built on the injector and the world runs, strand
	// the first peer leg that leaves.
	strand = &strandOne{inner: h.inj, stranding: true, never: h.clock.NewEvent()}
	h.spawn(func() { h.tr.SetInterceptor(strand) })
	out := hw.runOn(h)
	// Two are parked: the leg, and the coordinator that waits for it.
	if len(out.violations) == 0 || out.violations[0].Guarantee != "quiescence" ||
		!strings.Contains(out.violations[0].Detail, "2 actor(s) still parked") {
		t.Fatalf("hunt world with a stranded peer leg reported %v, want a quiescence finding first", out.violations)
	}
	strand.never.Fire() // let the two go
	h.clock.Drain()
	if n := h.clock.Parked(); n != 0 {
		t.Errorf("%d still parked once the link healed", n)
	}
}

// waitGoroutines polls until the goroutine count is back at base: retired
// workers have been woken by the time Drain returns but may not have run to
// their exit yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d still running, %d before the world", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorldQuiescenceFaultedWorldLeavesNoGoroutines is netsim's
// TestDrainRetiresIdleWorkers for a whole faulted world: one tracks-harsh
// hunt world — partitions, crashes and lossy links over three populations
// with operation timeouts — run, quiesced and drained, leaves no goroutine
// behind and therefore nothing that keeps the world reachable.
func TestWorldQuiescenceFaultedWorldLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := newHuntWorld("tracks-harsh", 42, false)
	if err != nil {
		t.Fatal(err)
	}
	out := runHuntWorld(w)
	if len(out.violations) != 0 {
		t.Fatalf("world did not end clean: %s", out.violations[0].String())
	}
	if out.ops == 0 {
		t.Fatal("world ran no operations")
	}
	waitGoroutines(t, base)
}

// TestHuntMemoryPerWorker: a finished world is garbage, so the hunt holds
// memory in proportion to its workers, not to the worlds it has swept. The
// live heap after 200 worlds must stay within twice what it was after 50;
// a leak of one world per faulted world makes it four times.
func TestHuntMemoryPerWorker(t *testing.T) {
	heapAfter := func(startSeed int64, seeds int) uint64 {
		res, err := Hunt(Config{Seed: startSeed}, HuntOptions{
			Seeds:    seeds,
			Profiles: []string{"tracks-mild", "tracks-harsh"},
			Workers:  2,
		})
		if err != nil {
			t.Fatalf("Hunt: %v", err)
		}
		if len(res.Findings) != 0 {
			t.Fatalf("sweep found %d violations; first: %s", len(res.Findings), res.Findings[0].Violation)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	at50 := heapAfter(1000, 25)  // 2 profiles x 25 seeds
	at200 := heapAfter(1025, 75) // 150 more
	t.Logf("HeapInuse after 50 worlds %.1f MB, after 200 worlds %.1f MB", float64(at50)/(1<<20), float64(at200)/(1<<20))
	if at200 > 2*at50 {
		t.Errorf("HeapInuse grew from %d bytes at 50 worlds to %d at 200: finished worlds are being kept", at50, at200)
	}
}
