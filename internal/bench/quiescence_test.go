package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"
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
		res, err := Hunt(Config{Seed: 42}, HuntOptions{
			Seeds:     seeds,
			StartSeed: startSeed,
			Profiles:  []string{"tracks-mild", "tracks-harsh"},
			Workers:   2,
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
