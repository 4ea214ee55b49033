//go:build !race

package binding

import (
	"context"
	"fmt"
	"testing"
	"time"

	"correctables/internal/core"
	"correctables/internal/faults"
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
// root op span, per-view instants and track-handle reuse cost one
// allocation over the plain pipeline, the invocation's record; the tracer
// keeps spans and instants in its own growing buffers, and the observer
// gets each view's wire box (6 while each view's value was boxed again for
// the observer). The disabled path is gated at 3 by the tests above —
// tracing off costs the pipeline nothing.
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
	const budget = 4
	if allocs > budget {
		t.Errorf("traced invoke allocates %.1f/op, budget %d", allocs, budget)
	}
	if spans, instants := trc.Counts(); spans == 0 || instants == 0 {
		t.Fatalf("tracer recorded spans=%d instants=%d — the gate must measure the enabled path", spans, instants)
	}
}

// TestAllocGateArmedInvoke bounds what an operation timeout adds to the
// plain invoke: one allocation, the invocation's record, whose timer the
// client arms on the clock and whose method value is the callback (the
// plain path's closure, which the record replaces). The guard, the timer
// closure and the heap-moved callback it replaced cost two. A synchronous
// binding closes the operation before the deadline is armed, so no timer
// is left behind.
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
	if armed > plain+1 {
		t.Errorf("armed invoke allocates %.1f/op, budget plain (%.1f) + 1", armed, plain)
	}
}

// nopObserver is an observer that keeps nothing.
type nopObserver struct{}

func (nopObserver) OpStart(OpInfo)                     {}
func (nopObserver) OpView(OpInfo, OpView)              {}
func (nopObserver) OpEnd(OpInfo, time.Duration, error) {}

// asyncBinding answers a strong read one millisecond after submission, on
// the clock: the operation is open when the deadline is armed, and its
// close stops the timer.
type asyncBinding struct {
	clock netsim.Clock
	value any
}

func (b *asyncBinding) ConsistencyLevels() core.Levels { return core.Levels{core.LevelStrong} }
func (b *asyncBinding) Scheduler() core.Scheduler      { return SchedulerFor(b.clock) }

func (b *asyncBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	b.clock.After(time.Millisecond, func() { cb(Result{Value: b.value, Level: core.LevelStrong, Version: 1}) })
}

// TestAllocGateObservedSessionArmedInvoke: an observer, a session and an
// operation timeout together cost the one record over the same invoke with
// none of them (observedOp, sessionCall, the guard, the heap-moved
// self-referencing callback, its closure and the timer closure were six,
// against the plain closure). The binding's own answer (one closure) is on
// both sides. The observer's view value is the binding's Result.Value, the
// box the binding sent, so a view costs the observer nothing (it was one
// box per view while the decoded value was boxed again). Each run closes
// before its deadline, and the closed operations leave the heap empty.
func TestAllocGateObservedSessionArmedInvoke(t *testing.T) {
	clock := netsim.NewVirtualClock()
	ctx := context.Background()
	b := &asyncBinding{clock: clock, value: []byte("payload")}
	plainC := NewClient(b)
	plain := testing.AllocsPerRun(200, func() {
		if _, err := InvokeStrong[[]byte](ctx, plainC, Get{Key: "k"}).Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	sess := NewSession(NewClient(b, WithObserver(nopObserver{}), WithOpTimeout(time.Second)))
	full := testing.AllocsPerRun(200, func() {
		if _, err := SessionInvokeStrong[[]byte](ctx, sess, Get{Key: "k"}).Final(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/invoke: plain=%.1f observed+session+timeout=%.1f", plain, full)
	if full > plain+1 {
		t.Errorf("observed session invoke with a timeout allocates %.1f/op, budget plain (%.1f) + 1", full, plain)
	}
	drainsAtOnce(t, clock)
}

// drainsAtOnce fails unless draining the clock leaves model time where it
// is: a deadline left in the heap would run the clock on to its instant.
func drainsAtOnce(t *testing.T, clock netsim.Clock) {
	t.Helper()
	now := clock.Now()
	clock.Drain()
	if end := clock.Now(); end != now {
		t.Errorf("Drain ran the clock from %v to %v: a closed operation left a timer behind", now, end)
	}
}

// failFirst fails the first left submissions with a retryable error, then
// answers like the synchronous binding.
type failFirst struct {
	*syncBinding
	left int
}

var errFlaky = fmt.Errorf("%w: injected", faults.ErrUnreachable)

func (b *failFirst) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	if b.left > 0 {
		b.left--
		cb(Result{Err: errFlaky})
		return
	}
	b.syncBinding.SubmitOperation(ctx, op, levels, cb)
}

// TestAllocGateRetriedInvoke: a governed retry allocates nothing. The
// backoff is the record's own timer, rung as the record (the resubmitting
// method value each retry used to make is gone), and the retry stops the
// failed attempt's deadline instead of leaving it in the heap.
func TestAllocGateRetriedInvoke(t *testing.T) {
	clock := netsim.NewVirtualClock()
	ctx := context.Background()
	b := &failFirst{syncBinding: newSyncBinding()}
	c := NewClient(clocked{b, clock}, WithOpTimeout(time.Second),
		WithRetry(RetryPolicy{Max: 8, Base: time.Millisecond}))
	measure := func(retries int) float64 {
		return testing.AllocsPerRun(200, func() {
			b.left = retries
			if _, err := Invoke[[]byte](ctx, c, Get{Key: "k"}).Final(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, retried := measure(0), measure(4)
	t.Logf("allocs/governed invoke: no retry=%.1f four retries=%.1f", once, retried)
	if retried > once {
		t.Errorf("four retries add %.1f allocs/invoke, want 0", retried-once)
	}
	drainsAtOnce(t, clock)
}
