package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// idleWorkers reads the idle pool's depth.
func idleWorkers(c *VirtualClock) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// waitGoroutines polls until the goroutine count is back at base: retired
// workers have been woken by the time Drain returns but may not have run to
// their exit yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d still running, %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerPoolKeepsSpawnOrder: which goroutine runs an actor must not
// show in the event order. One scenario — actors spawned by the root, by a
// callback timer between two of them, and by an actor on its way out —
// runs first on a cold clock (every Go starts a goroutine) and then twice
// more on the same clock with the pool warm (every Go reuses a parked
// worker, taken from the pool in LIFO order); all three logs must be the
// one the (deadline, spawn sequence) rule dictates.
func TestWorkerPoolKeepsSpawnOrder(t *testing.T) {
	c := NewVirtualClock()
	scenario := func() string {
		var log []string
		note := func(s string) { log = append(log, s) }
		t0 := c.Now()
		for _, name := range []string{"a", "b", "c"} {
			c.Go(func() {
				note(name)
				c.Sleep(time.Millisecond)
				note(name + "'")
				if name == "b" {
					// Spawned by an actor on its way out: b's own worker is not
					// idle yet, so the child runs on another one — and, being
					// ready, before the sleeper c' that is still a timer.
					c.Go(func() { note("b-child") })
				}
			})
		}
		// Armed before a, b and c first run, so at t0+1ms it precedes their
		// sleeps' wakeups; the actors it spawns are ready at once and run
		// before those wakeups too.
		c.RunAt(t0+time.Millisecond, func() {
			note("cb")
			c.Go(func() { note("cb-child-1") })
			c.Go(func() { note("cb-child-2") })
		})
		c.Go(func() { note("d") })
		c.Sleep(2 * time.Millisecond)
		return strings.Join(log, " ")
	}
	const want = "a b c d cb cb-child-1 cb-child-2 a' b' b-child c'"

	spawned := c.Spawned()
	if got := scenario(); got != want {
		t.Fatalf("cold pool: order %q, want %q", got, want)
	}
	if n := c.Spawned() - spawned; n != 7 {
		t.Errorf("Spawned counted %d actors, want 7 (one per Go)", n)
	}
	if idleWorkers(c) == 0 {
		t.Fatal("no worker parked in the idle pool after its actor returned")
	}
	for round := 1; round <= 2; round++ {
		before := runtime.NumGoroutine()
		if got := scenario(); got != want {
			t.Fatalf("warm pool, round %d: order %q, want %q", round, got, want)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("round %d started %d goroutines with enough idle workers parked", round, after-before)
		}
	}
	if n := c.Spawned() - spawned; n != 21 {
		t.Errorf("Spawned counted %d actors over three rounds, want 21: reuse must still count", n)
	}
	c.Drain()
}

// TestWorkerPoolCallbackPicksDispatchingWorker: a worker that has just
// parked itself in the pool and is dispatching may run a callback whose Go
// takes that very worker; the wake must wait for it in its channel.
func TestWorkerPoolCallbackPicksDispatchingWorker(t *testing.T) {
	c := NewVirtualClock()
	ran := 0
	c.RunAfter(time.Millisecond, func() {
		// The root is asleep, so the dispatcher is the exiting worker below,
		// and it is the only idle one.
		c.Go(func() { ran++ })
	})
	c.Go(func() { ran++ })
	c.Sleep(2 * time.Millisecond)
	if ran != 2 {
		t.Fatalf("%d of 2 actors ran", ran)
	}
	c.Drain()
}

// TestDrainRetiresIdleWorkers: after Drain the goroutine count is back
// where it was before the world existed, whether Drain had work to wait
// for or found the clock already quiescent.
func TestDrainRetiresIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, pending := range []bool{true, false} {
		c := NewVirtualClock()
		for i := 0; i < 100; i++ {
			c.Go(func() { c.Sleep(time.Duration(i) * time.Microsecond) })
		}
		if !pending {
			c.Sleep(time.Millisecond) // every actor has exited into the pool
			if idleWorkers(c) != 100 {
				t.Fatalf("%d idle workers, want 100", idleWorkers(c))
			}
		}
		c.Drain()
		if n := idleWorkers(c); n != 0 {
			t.Errorf("pending=%v: %d workers still pooled after Drain", pending, n)
		}
		waitGoroutines(t, base)
		// The clock stays usable: later actors start new workers.
		done := false
		c.Go(func() { done = true })
		c.Drain()
		if !done {
			t.Errorf("pending=%v: actor spawned after Drain did not run", pending)
		}
		waitGoroutines(t, base)
	}
}

// TestWorkerPoolBounded: a burst of actors ending in one instant leaves at
// most maxIdleWorkers parked; the rest exit as goroutines always did.
func TestWorkerPoolBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewVirtualClock()
	gate := c.NewEvent()
	const burst = maxIdleWorkers + 150
	for i := 0; i < burst; i++ {
		c.Go(gate.Wait)
	}
	c.Sleep(time.Millisecond) // all parked on the gate
	gate.Fire()
	c.Sleep(time.Millisecond) // all ended
	if n := idleWorkers(c); n != maxIdleWorkers {
		t.Errorf("%d idle workers after the burst, want the bound %d", n, maxIdleWorkers)
	}
	waitGoroutines(t, base+maxIdleWorkers)
	// The pooled ones serve the next actors without a goroutine start.
	before := runtime.NumGoroutine()
	for i := 0; i < maxIdleWorkers; i++ {
		c.Go(func() {})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines started with %d workers idle", after-before, maxIdleWorkers)
	}
	c.Drain()
	waitGoroutines(t, base)
}

// TestEventReleaseReuse: a released event comes back from NewEvent unfired
// and works like a new one.
func TestEventReleaseReuse(t *testing.T) {
	c := NewVirtualClock()
	e := c.NewEvent()
	e.Fire()
	e.Wait()
	e.Release()
	e2 := c.NewEvent()
	if e2 != e {
		t.Fatal("NewEvent did not reuse the released event")
	}
	woke := ""
	for _, name := range []string{"x", "y"} {
		c.Go(func() {
			e2.Wait()
			woke += fmt.Sprint(name, "@", c.Now(), " ")
		})
	}
	c.Sleep(time.Millisecond)
	if woke != "" {
		t.Fatalf("recycled event was still fired: %q", woke)
	}
	e2.Fire()
	c.Drain()
	if woke != "x@1ms y@1ms " {
		t.Errorf("waiters of the recycled event woke as %q, want x then y at 1ms", woke)
	}
}

// TestFreeListIsLIFO: Take returns nil on an empty list — the caller builds —
// and otherwise the most recently freed record, so a steady load keeps
// reusing the same warm few.
func TestFreeListIsLIFO(t *testing.T) {
	var l FreeList[int]
	if l.Take() != nil {
		t.Fatal("Take on an empty list returned a record")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Take() != b || l.Take() != a || l.Take() != nil {
		t.Error("Take does not return the most recently freed record first, then nil")
	}
}
