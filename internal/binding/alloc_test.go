//go:build !race

package binding

import (
	"context"
	"testing"
	"time"

	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// TestAllocGateTypedWeakRead is the allocation-regression gate for the
// typed invoke path (run by CI without -race): the weak read must stay
// within a small absolute budget. (The boxed-shim baseline it used to be
// compared against was removed with the shims themselves; the absolute
// budget below is the gate.)
func TestAllocGateTypedWeakRead(t *testing.T) {
	c := NewClient(newSyncBinding())
	ctx := context.Background()

	typed := testing.AllocsPerRun(200, func() {
		cor := InvokeWeak[[]byte](ctx, c, Get{Key: "k"})
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/invoke: typed=%.1f", typed)
	// Exact budget: correctable + callback closure + op interface box.
	// (The views themselves live in the correctable's inline buffer.) The
	// boxed-shim comparison this gate used to make enforced <= 3 too; keep
	// that bar now that the shims are gone.
	const budget = 3
	if typed > budget {
		t.Errorf("typed weak read allocates %.1f/op, budget %d", typed, budget)
	}
}

// TestAllocGateObserverlessPipeline: the redesigned invoke pipeline
// (observers, sessions, timeouts) must cost nothing when none of those
// features is in use — the plain path stays within the same budget as
// before the redesign.
func TestAllocGateObserverlessPipeline(t *testing.T) {
	c := NewClient(newSyncBinding(), WithLabel("gate"))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		cor := Invoke[[]byte](ctx, c, Get{Key: "k"})
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/observerless invoke: %.1f", allocs)
	const budget = 3
	if allocs > budget {
		t.Errorf("observerless invoke allocates %.1f/op, budget %d", allocs, budget)
	}
}

// TestAllocGateFullInvoke gates the two-view ICG read as well: the typed
// path must not exceed the weak-read budget by more than the extra view
// delivery.
func TestAllocGateFullInvoke(t *testing.T) {
	c := NewClient(newSyncBinding())
	ctx := context.Background()
	typed := testing.AllocsPerRun(200, func() {
		cor := Invoke[[]byte](ctx, c, Get{Key: "k"})
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/ICG invoke: typed=%.1f", typed)
	const budget = 3
	if typed > budget {
		t.Errorf("typed ICG invoke allocates %.1f/op, budget %d", typed, budget)
	}
}

// admitAll is an admission gate that admits every attempt.
type admitAll struct{}

func (admitAll) Admit(string, Operation) (AdmissionDecision, error) { return AdmissionAdmit, nil }

// TestAllocGateGovernedInvoke bounds the governed path: an invocation under
// an admission gate costs the plain invoke's three allocations plus one,
// the governed record, whose attempt and resubmit are methods and which
// embeds the state its timers and retries consult (6 while that state, the
// attempt and the resubmission were an object and two closures).
func TestAllocGateGovernedInvoke(t *testing.T) {
	c := NewClient(newSyncBinding(), WithAdmission(admitAll{}))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		cor := Invoke[[]byte](ctx, c, Get{Key: "k"})
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/governed invoke: %.1f", allocs)
	const budget = 4
	if allocs > budget {
		t.Errorf("governed invoke allocates %.1f/op, budget %d", allocs, budget)
	}
}

// TestAllocGateTracedInvoke bounds the tracing-ENABLED invoke path: the
// root op span, per-view instants and track-handle reuse must cost at most
// three allocations over the plain pipeline (the observer-path frames).
// The disabled path is gated at 3 by the tests above — tracing off costs
// the pipeline nothing.
func TestAllocGateTracedInvoke(t *testing.T) {
	trc := trace.New()
	c := NewClient(newSyncBinding(), WithTracer(trc), WithLabel("gate"))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		cor := Invoke[[]byte](ctx, c, Get{Key: "k"})
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/traced invoke: %.1f", allocs)
	const budget = 6
	if allocs > budget {
		t.Errorf("traced invoke allocates %.1f/op, budget %d", allocs, budget)
	}
	if spans, instants := trc.Counts(); spans == 0 || instants == 0 {
		t.Fatalf("tracer recorded spans=%d instants=%d — the gate must measure the enabled path", spans, instants)
	}
}

// TestAllocGateArmedInvoke bounds what an operation timeout adds to the
// plain invoke: the guard the terminal transition empties and the timer
// closure that holds it — two allocations, where the Finally/atomic.Pointer
// indirection this replaced paid eight. Each run lets the timer fire, so
// the disarmed no-op path is inside the measurement and the timer heap
// stays at one entry.
func TestAllocGateArmedInvoke(t *testing.T) {
	clock := netsim.NewVirtualClock()
	ctx := context.Background()
	const timeout = 50 * time.Millisecond
	measure := func(opts ...Option) float64 {
		c := NewClient(clocked{newSyncBinding(), clock}, opts...)
		return testing.AllocsPerRun(200, func() {
			cor := Invoke[[]byte](ctx, c, Get{Key: "k"})
			if _, err := cor.Final(ctx); err != nil {
				t.Fatal(err)
			}
			clock.Sleep(timeout)
		})
	}
	plain, armed := measure(), measure(WithOpTimeout(timeout))
	t.Logf("allocs/invoke: plain=%.1f armed=%.1f", plain, armed)
	if armed > plain+2 {
		t.Errorf("armed invoke allocates %.1f/op, budget plain (%.1f) + 2", armed, plain)
	}
}
