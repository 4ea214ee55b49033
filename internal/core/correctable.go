package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// State is the lifecycle state of a Correctable (§3.1, Figure 3).
type State uint8

const (
	// StateUpdating: the operation is in progress; preliminary views may
	// still arrive.
	StateUpdating State = iota
	// StateFinal: the Correctable closed with a final (strongest requested)
	// view.
	StateFinal
	// StateError: the Correctable closed with an error.
	StateError
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateUpdating:
		return "updating"
	case StateFinal:
		return "final"
	case StateError:
		return "error"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// View is one incremental view of an operation's result: a value together
// with the consistency level it satisfies. The value is typed: a
// Correctable[T] delivers View[T], so applications never assert types on
// the hot path.
type View[T any] struct {
	// Value is the operation result as provided by the binding. A value with
	// reference semantics (a []byte, a struct holding one) is shared with
	// the store that produced it and with every other view of the same
	// state, and is immutable: retain it freely, never modify it. A store
	// replaces a value, it never writes into one, so a retained view keeps
	// reading the bytes it was delivered with.
	Value T
	// Level is the consistency guarantee this view satisfies.
	Level Level
	// Index is the 0-based position of this view in the delivery sequence.
	Index int
	// Final reports whether this is the closing view.
	Final bool
	// At is the delivery instant on the Correctable's scheduler time axis
	// (set by the library): model time under a simulation scheduler —
	// deterministic, so recorded histories replay byte-identically — and
	// monotonic process time under the default scheduler.
	At time.Duration
}

// Callbacks bundles the three per-state callbacks of a Correctable
// (Figure 3). Any field may be nil. OnUpdate fires for every view, including
// the final one (the final view is both an update and the closing view, so
// code written against OnUpdate alone observes the full sequence, as in the
// paper's Listing 5/6). OnFinal fires exactly once, after the last OnUpdate.
// OnError fires exactly once if the Correctable closes with an error.
//
// Callbacks for one Correctable are delivered sequentially, in view order;
// a callback may attach further callbacks or even deliver views through a
// Controller, but it must not block — neither waiting on the same
// Correctable nor through the simulation scheduler at all. Bindings may
// deliver non-final views from clock callback-timer context (see
// netsim.Clock: preliminary flushes ride on RunAfter), where any blocking
// scheduler call panics. Run cheap reactions inline; hand blocking
// follow-up work (issuing another operation synchronously, charging
// service time) to a new actor via the clock's Go.
type Callbacks[T any] struct {
	OnUpdate func(View[T])
	OnFinal  func(View[T])
	OnError  func(error)
}

// ErrClosed is returned by Controller methods invoked after the Correctable
// has already closed.
var ErrClosed = errors.New("correctable: already closed")

// ErrNoView is returned when waiting on a Correctable that closed with no
// view at the requested level.
var ErrNoView = errors.New("correctable: closed without a view at the requested level")

// cbEntry tracks how far delivery has progressed for one attached callback
// bundle, so that late subscribers replay history without duplicates.
type cbEntry[T any] struct {
	cbs          Callbacks[T]
	next         int // index of next view to deliver
	terminalSent bool
}

// inlineViews is the number of views a Correctable stores without heap
// allocation. Two covers the paper's common case (one preliminary + one
// final view per ICG invocation), which keeps the typed invoke path free of
// per-view allocations.
const inlineViews = 2

// Correctable represents the progressively improving result of an operation
// on a replicated object, generic over the operation's value type T. It is
// safe for concurrent use.
type Correctable[T any] struct {
	sched Scheduler // fixed at creation; nil means DefaultScheduler

	mu          sync.Mutex
	state       State
	views       []View[T]
	viewBuf     [inlineViews]View[T] // inline storage for the common ≤2-view case
	err         error
	entries     []*cbEntry[T]
	dispatching bool
	done        chan struct{} // lazily created by Done()
	waiter      Event         // first blocked consumer, fired on every transition
	moreWaiters []Event       // further ones, in arrival order
	levelSet    Levels        // advisory: levels this correctable will deliver
}

// scheduler returns the Correctable's scheduler, defaulting when unset.
func (c *Correctable[T]) scheduler() Scheduler {
	if c.sched == nil {
		return DefaultScheduler
	}
	return c.sched
}

// Controller is the producer-side handle of a Correctable. The library hands
// the Correctable to the application and keeps the Controller for the
// binding; this split keeps applications from closing results themselves.
// Controller is a small value (copy it freely); the zero Controller is
// invalid.
type Controller[T any] struct {
	c *Correctable[T]
}

// New creates a Correctable in the Updating state together with its
// Controller.
func New[T any]() (*Correctable[T], Controller[T]) {
	c := &Correctable[T]{}
	c.views = c.viewBuf[:0]
	return c, Controller[T]{c: c}
}

// NewScheduled is New with an explicit Scheduler governing how this
// Correctable spawns goroutines (Speculate) and how its consumers block
// (Final, WaitLevel), plus an advisory level set. Bindings over simulated
// substrates pass their clock's scheduler here; sched == nil means
// DefaultScheduler. The Correctable Speculate derives inherits the
// scheduler.
//
// NewScheduled takes ownership of levels and stores it without copying or
// re-sorting; callers must pass an already-normalized (weakest-first,
// deduplicated) set — the client library caches these per construction, so
// the invoke hot path performs no per-call level allocation.
func NewScheduled[T any](sched Scheduler, levels Levels) (*Correctable[T], Controller[T]) {
	c := &Correctable[T]{sched: sched, levelSet: levels}
	c.views = c.viewBuf[:0]
	return c, Controller[T]{c: c}
}

// Failed returns an already-errored Correctable.
func Failed[T any](err error) *Correctable[T] {
	c, ctrl := New[T]()
	_ = ctrl.Fail(err)
	return c
}

// Levels returns the advisory set of levels this Correctable was created
// with (nil if the producer did not declare one — no allocation in that
// common case).
func (c *Correctable[T]) Levels() Levels {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.levelSet) == 0 {
		return nil
	}
	out := make(Levels, len(c.levelSet))
	copy(out, c.levelSet)
	return out
}

// Update delivers a preliminary view (Updating -> Updating). It returns
// ErrClosed if the Correctable has already closed.
func (ctrl Controller[T]) Update(value T, level Level) error {
	return ctrl.c.deliver(value, level, false, nil)
}

// Close delivers the final view and transitions to StateFinal. It returns
// ErrClosed if the Correctable has already closed.
func (ctrl Controller[T]) Close(value T, level Level) error {
	return ctrl.c.deliver(value, level, true, nil)
}

// Fail closes the Correctable with an error (StateError). It returns
// ErrClosed if the Correctable has already closed.
func (ctrl Controller[T]) Fail(err error) error {
	if err == nil {
		err = errors.New("correctable: Fail called with nil error")
	}
	var zero T
	return ctrl.c.deliver(zero, LevelNone, false, err)
}

// Correctable returns the consumer-side handle (convenience for producers
// that create both ends).
func (ctrl Controller[T]) Correctable() *Correctable[T] { return ctrl.c }

// deliver is the single mutation point: it appends a view or records the
// error, wakes waiters, runs the dispatch loop, and closes done on the
// terminal transition.
func (c *Correctable[T]) deliver(value T, level Level, final bool, failure error) error {
	c.mu.Lock()
	if c.state != StateUpdating {
		c.mu.Unlock()
		return ErrClosed
	}
	if failure != nil {
		c.state = StateError
		c.err = failure
	} else {
		c.views = append(c.views, View[T]{
			Value: value, Level: level, Index: len(c.views), Final: final, At: c.scheduler().Now(),
		})
		if final {
			c.state = StateFinal
		}
	}
	terminal := c.state != StateUpdating
	done := c.done
	first, more := c.waiter, c.moreWaiters
	c.waiter, c.moreWaiters = nil, nil
	c.dispatch()
	c.mu.Unlock()

	if first != nil {
		first.Fire()
	}
	for _, w := range more {
		w.Fire()
	}
	if terminal && done != nil {
		close(done)
	}
	return nil
}

// dispatch drains pending notifications to all attached callbacks. It must
// be called with c.mu held and returns with c.mu held. Callbacks run with
// the lock released. Re-entrant calls (from inside a callback) return
// immediately; the outer dispatch loop picks up whatever they enqueued.
func (c *Correctable[T]) dispatch() {
	if c.dispatching {
		return
	}
	c.dispatching = true
	for {
		progressed := false
		for i := 0; i < len(c.entries); i++ {
			e := c.entries[i]
			for e.next < len(c.views) {
				v := c.views[e.next]
				e.next++
				cb := e.cbs.OnUpdate
				if cb != nil {
					c.mu.Unlock()
					cb(v)
					c.mu.Lock()
				}
				progressed = true
			}
			if !e.terminalSent && c.state != StateUpdating && e.next == len(c.views) {
				e.terminalSent = true
				progressed = true
				switch c.state {
				case StateFinal:
					if cb := e.cbs.OnFinal; cb != nil && len(c.views) > 0 {
						v := c.views[len(c.views)-1]
						c.mu.Unlock()
						cb(v)
						c.mu.Lock()
					}
				case StateError:
					if cb := e.cbs.OnError; cb != nil {
						err := c.err
						c.mu.Unlock()
						cb(err)
						c.mu.Lock()
					}
				}
			}
		}
		if !progressed {
			break
		}
	}
	c.dispatching = false
}

// SetCallbacks attaches a callback bundle (§3.1). If views were already
// delivered, they are replayed to the new callbacks (in order, without
// duplicates) before SetCallbacks returns, so late subscribers observe the
// complete history exactly as early ones did. It returns c to allow
// chaining, mirroring the paper's fluent style:
//
//	Speculate(invoke(op), f, nil).SetCallbacks(...)
func (c *Correctable[T]) SetCallbacks(cbs Callbacks[T]) *Correctable[T] {
	c.mu.Lock()
	c.entries = append(c.entries, &cbEntry[T]{cbs: cbs})
	c.dispatch()
	c.mu.Unlock()
	return c
}

// OnUpdate attaches an update-only callback.
func (c *Correctable[T]) OnUpdate(f func(View[T])) *Correctable[T] {
	return c.SetCallbacks(Callbacks[T]{OnUpdate: f})
}

// Finally invokes f exactly once when c leaves the Updating state, whether
// it closed with a view or an error, and returns c for chaining.
func (c *Correctable[T]) Finally(f func()) *Correctable[T] {
	return c.SetCallbacks(Callbacks[T]{
		OnFinal: func(View[T]) { f() },
		OnError: func(error) { f() },
	})
}

// State returns the current state.
func (c *Correctable[T]) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Err returns the closing error, if any.
func (c *Correctable[T]) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Views returns a copy of all views delivered so far, in order.
func (c *Correctable[T]) Views() []View[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]View[T](nil), c.views...)
}

// Latest returns the most recent view, if any.
func (c *Correctable[T]) Latest() (View[T], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.views) == 0 {
		var zero View[T]
		return zero, false
	}
	return c.views[len(c.views)-1], true
}

// closedChan is a shared, already-closed channel returned by Done for
// Correctables that closed before anyone asked.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel closed when the Correctable leaves the Updating
// state. The channel is created lazily so that invocations that never block
// on it pay no allocation.
func (c *Correctable[T]) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		if c.state != StateUpdating {
			return closedChan
		}
		c.done = make(chan struct{})
	}
	return c.done
}

// Final blocks until the Correctable closes and returns the final view. If
// the Correctable closed with an error, or ctx expires first, that error is
// returned. Cancellable contexts are honored only under the default
// scheduler; a simulation scheduler cannot select on host-time
// cancellation (simulated operations always terminate instead).
func (c *Correctable[T]) Final(ctx context.Context) (View[T], error) {
	var zero View[T]
	if ctxDone := ctxDoneChan(ctx); ctxDone != nil && c.sched == nil {
		select {
		case <-c.Done():
		case <-ctxDone:
			return zero, ctx.Err()
		}
	} else {
		c.awaitTerminal()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateError {
		return zero, c.err
	}
	if len(c.views) == 0 {
		return zero, ErrNoView
	}
	return c.views[len(c.views)-1], nil
}

// awaitTerminal blocks through scheduler events until the Correctable
// leaves the Updating state.
func (c *Correctable[T]) awaitTerminal() {
	for {
		c.mu.Lock()
		if c.state != StateUpdating {
			c.mu.Unlock()
			return
		}
		w := c.addWaiterLocked()
		c.mu.Unlock()
		w.Wait()
		releaseEvent(w)
	}
}

// addWaiterLocked registers a fresh event that the next transition fires.
// The first waiter sits in a field of its own, so the usual lone consumer
// blocked in Final or WaitLevel costs no slice. Callers hold c.mu.
func (c *Correctable[T]) addWaiterLocked() Event {
	w := c.scheduler().NewEvent()
	if c.waiter == nil {
		c.waiter = w
	} else {
		c.moreWaiters = append(c.moreWaiters, w)
	}
	return w
}

// releaseEvent hands a waiter event whose Wait has returned back to its
// scheduler when that scheduler recycles events (netsim's VirtualClock
// does). deliver unregistered the event before firing it and the waiter was
// its only other holder, so nothing refers to it any more.
func releaseEvent(w Event) {
	if r, ok := w.(interface{ Release() }); ok {
		r.Release()
	}
}

// WaitLevel blocks until a view with level >= min has been delivered and
// returns the first such view. If the Correctable closes without one, it
// returns ErrNoView (or the closing error). Views already scanned on a
// previous wakeup are not re-examined, so waiting costs O(new views), and a
// wait that is already satisfied performs no allocation. Context
// cancellation is honored as in Final.
func (c *Correctable[T]) WaitLevel(ctx context.Context, min Level) (View[T], error) {
	var zero View[T]
	ctxDone := ctxDoneChan(ctx)
	scanned := 0
	for {
		c.mu.Lock()
		for ; scanned < len(c.views); scanned++ {
			if v := c.views[scanned]; v.Level.AtLeast(min) {
				c.mu.Unlock()
				return v, nil
			}
		}
		if c.state == StateError {
			err := c.err
			c.mu.Unlock()
			return zero, err
		}
		if c.state == StateFinal {
			c.mu.Unlock()
			return zero, ErrNoView
		}
		w := c.addWaiterLocked()
		c.mu.Unlock()
		if ce, ok := w.(*chanEvent); ok && ctxDone != nil {
			select {
			case <-ce.ch:
			case <-ctxDone:
				return zero, ctx.Err()
			}
		} else {
			w.Wait()
			releaseEvent(w)
		}
	}
}

// ctxDoneChan returns ctx's cancellation channel, or nil for nil /
// non-cancellable contexts.
func ctxDoneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Equaler lets application values customize the divergence check used by
// Speculate and by confirmation detection. If a view value implements
// Equaler[T], it is consulted; otherwise ValuesEqual falls back to
// bytes.Equal for []byte and reflect.DeepEqual for everything else. The
// parameter type must be the view type itself: a method taking
// interface{} implements Equaler[any], not Equaler[T], and is ignored for
// a Correctable[T].
type Equaler[T any] interface {
	EqualValue(other T) bool
}

// ValuesEqual reports whether two view values are equal for the purpose of
// confirmation / misspeculation detection. Either operand's Equaler[T] is
// consulted first; []byte values then compare by content without
// reflection; everything else falls back to reflect.DeepEqual.
func ValuesEqual[T any](a, b T) bool {
	// T = []byte (which can have no Equaler) is the hot instantiation: every
	// speculation confirm of a key-value read. Asserting on the operands'
	// addresses keeps them out of interface boxes — any(a) would allocate a
	// slice header per operand.
	if ap, ok := any(&a).(*[]byte); ok {
		return bytes.Equal(*ap, *any(&b).(*[]byte))
	}
	if e, ok := any(a).(Equaler[T]); ok {
		return e.EqualValue(b)
	}
	if e, ok := any(b).(Equaler[T]); ok {
		return e.EqualValue(a)
	}
	if av, ok := any(a).([]byte); ok {
		if bv, ok := any(b).([]byte); ok {
			return bytes.Equal(av, bv)
		}
		return false // only possible for T=any with mismatched dynamic types
	}
	return reflect.DeepEqual(a, b)
}
