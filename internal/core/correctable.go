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
	// At is the delivery instant in model time, read from the clock of the
	// binding the view came from (set by the library): deterministic, so
	// recorded histories replay byte-identically.
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

// ErrNoView is returned by Final on a Correctable that closed without a
// view.
var ErrNoView = errors.New("correctable: closed without a view")

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
	sched Scheduler // fixed at creation; nil only for Failed, which never blocks

	mu          sync.Mutex
	state       State
	dispatching bool
	subscribed  bool // first holds a subscriber
	views       []View[T]
	viewBuf     [inlineViews]View[T] // inline storage for the common ≤2-view case
	err         error
	first       cbEntry[T]   // the first subscriber, inline: the usual lone one costs nothing
	waiter      Event        // first blocked consumer, fired on every transition
	more        *overflow[T] // the second and later subscribers and blocked consumers
	levelSet    Levels       // advisory: levels this correctable will deliver
}

// overflow holds what a Correctable rarely has: a second or later
// subscriber, a second or later blocked consumer. It is allocated on the
// first such arrival and never on the usual path.
type overflow[T any] struct {
	entries []*cbEntry[T] // in attachment order, after Correctable.first
	waiters []Event       // in arrival order, after Correctable.waiter
}

// Controller is the producer-side handle of a Correctable. The library hands
// the Correctable to the application and keeps the Controller for the
// binding; this split keeps applications from closing results themselves.
// Controller is a small value (copy it freely); the zero Controller is
// invalid.
type Controller[T any] struct {
	c *Correctable[T]
}

// NewScheduled creates a Correctable in the Updating state together with
// its Controller. sched is the clock of the binding the views come from and
// must not be nil: it governs how the Correctable spawns actors
// (Speculate), how its consumers block (Final) and the instant
// each view is stamped with. The Correctable Speculate derives inherits
// it. levels is the advisory set of levels the Correctable will deliver.
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

// Failed returns an already-errored Correctable. It needs no scheduler: a
// Correctable created closed never blocks and never stamps a view.
func Failed[T any](err error) *Correctable[T] {
	return &Correctable[T]{state: StateError, err: err}
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
// error, runs the dispatch loop and wakes waiters.
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
			Value: value, Level: level, Index: len(c.views), Final: final, At: c.sched.Now(),
		})
		if final {
			c.state = StateFinal
		}
	}
	first := c.waiter
	c.waiter = nil
	var more []Event
	if c.more != nil {
		more = c.more.waiters
		c.more.waiters = nil
	}
	c.dispatch()
	c.mu.Unlock()

	if first != nil {
		first.Fire()
	}
	for _, w := range more {
		w.Fire()
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
		if c.subscribed {
			progressed = c.drain(&c.first)
		}
		// c.more and its entries may grow while a callback runs: re-read
		// both on every turn.
		for i := 0; c.more != nil && i < len(c.more.entries); i++ {
			if c.drain(c.more.entries[i]) {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	c.dispatching = false
}

// drain delivers to e the views and the terminal callback it has not seen
// yet; it reports whether it delivered anything. Like dispatch it is called
// with c.mu held, returns with c.mu held and runs callbacks with the lock
// released.
func (c *Correctable[T]) drain(e *cbEntry[T]) bool {
	progressed := false
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
	return progressed
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
	if !c.subscribed {
		c.first, c.subscribed = cbEntry[T]{cbs: cbs}, true
	} else {
		if c.more == nil {
			c.more = &overflow[T]{}
		}
		c.more.entries = append(c.more.entries, &cbEntry[T]{cbs: cbs})
	}
	c.dispatch()
	c.mu.Unlock()
	return c
}

// OnUpdate attaches an update-only callback.
func (c *Correctable[T]) OnUpdate(f func(View[T])) *Correctable[T] {
	return c.SetCallbacks(Callbacks[T]{OnUpdate: f})
}

// State returns the current state.
func (c *Correctable[T]) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Views returns a copy of all views delivered so far, in order.
func (c *Correctable[T]) Views() []View[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]View[T](nil), c.views...)
}

// Timing is what an operation's views say about it, measured from the
// instant the operation started.
type Timing struct {
	// Prelim is the latency of the preliminary view (valid iff HasPrelim),
	// Final that of the final view (valid iff HasFinal).
	Prelim, Final       time.Duration
	HasPrelim, HasFinal bool
	// Diverged: both views exist and the final did not confirm the
	// preliminary (ValuesEqual, the notion Speculate uses).
	Diverged bool
}

// TimingOf reads an operation's timing off the views c kept, for an
// operation started at start: the first view, unless it is the final one,
// is the preliminary — it stands even if the operation then fails — and
// the final latency exists when the last view is final. Call it once c has
// closed.
func TimingOf[T any](c *Correctable[T], start time.Duration) Timing {
	var t Timing
	views := c.Views()
	if len(views) == 0 {
		return t
	}
	first, last := views[0], views[len(views)-1]
	if !first.Final {
		t.HasPrelim, t.Prelim = true, first.At-start
	}
	if last.Final {
		t.HasFinal, t.Final = true, last.At-start
		t.Diverged = t.HasPrelim && !ValuesEqual(first.Value, last.Value)
	}
	return t
}

// Final blocks through the scheduler until the Correctable closes and
// returns the final view, or the closing error. ctx is not consulted: a
// Correctable closes on its clock, with a final view, a binding error or
// the client library's operation timeout.
func (c *Correctable[T]) Final(ctx context.Context) (View[T], error) {
	var zero View[T]
	c.awaitTerminal()
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
// blocked in Final costs no overflow. Callers hold c.mu.
func (c *Correctable[T]) addWaiterLocked() Event {
	w := c.sched.NewEvent()
	if c.waiter == nil {
		c.waiter = w
	} else {
		if c.more == nil {
			c.more = &overflow[T]{}
		}
		c.more.waiters = append(c.more.waiters, w)
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
