//go:build !race

package load

import (
	"testing"
	"time"

	"correctables/internal/netsim"
)

// TestAllocGateArrivals: an arrival chain is one record with its step bound
// once, so a second of 1000/s Poisson arrivals on a warm clock allocates
// only what it builds — the process (the Poisson, its generator and its
// source: 3) and the chain's record and its bound step (2) — 5 in all,
// where a closure per arrival made it 995. The count does not grow with
// the number of arrivals.
func TestAllocGateArrivals(t *testing.T) {
	clock := netsim.NewVirtualClock()
	arrivals := 0
	fire := func(int) { arrivals++ }
	measure := func(span time.Duration) float64 {
		Start(clock, NewPoisson(1000, 1), clock.Now()+span, fire) // warm the timer free list
		clock.Drain()
		arrivals = 0
		got := testing.AllocsPerRun(20, func() {
			Start(clock, NewPoisson(1000, 1), clock.Now()+span, fire)
			clock.Drain()
		})
		// AllocsPerRun calls the chain 21 times (one warm-up); each should
		// fire about one arrival per model millisecond.
		if arrivals < 21*int(span/time.Millisecond)/2 {
			t.Fatalf("%d arrivals over 21 runs of %v at 1000/s", arrivals, span)
		}
		return got
	}
	one, four := measure(time.Second), measure(4*time.Second)
	t.Logf("allocs per arrival chain: %.1f over 1 s, %.1f over 4 s", one, four)
	const budget = 5
	if one > budget {
		t.Errorf("1 s of 1000/s arrivals allocates %.1f, budget %d", one, budget)
	}
	if four != one {
		t.Errorf("4 s of arrivals allocate %.1f, 1 s %.1f: the chain allocates per arrival", four, one)
	}
}
