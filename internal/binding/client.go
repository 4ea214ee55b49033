package binding

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/trace"
)

// Client is the application-facing side of the Correctables library
// (Figure 2): a consistency-based interface over one binding, configured
// with functional options.
//
// The typed entry points are the package-level generics Invoke, InvokeWeak
// and InvokeStrong (plus the per-store facades built on them); they return
// core.Correctable[T] for the operation's value type T. Every invocation
// runs through one pipeline: observers see OpStart/OpView/OpEnd events with
// model-time timestamps, and a per-client operation timeout bounds the
// whole invocation in model time — the client library, not each storage
// binding, owns the deadline.
//
// The ctx of every invocation is handed to the binding and consulted by
// neither: an invocation ends only on its binding's clock, with a final
// view, a binding error or the WithOpTimeout bound. A host-time
// cancellation has no place in a run that one virtual clock orders.
type Client struct {
	b     Binding
	sched core.Scheduler // b.Scheduler(), read once

	// Level sets are normalized once at construction so the invoke hot path
	// never re-sorts or re-allocates them (they are handed to
	// core.NewScheduled, which stores them without copying).
	levels    core.Levels // ConsistencyLevels().Sorted()
	weakSet   core.Levels // one-element set: weakest level
	strongSet core.Levels // one-element set: strongest level

	obs        Observer        // nil when no observer is attached (hot-path fast path)
	obsList    Observers       // backing list for WithObserver accumulation
	label      string          // client identity stamped on observer events
	opTimeout  time.Duration   // WithOpTimeout override (see timeoutSet); 0 = unbounded
	timeoutSet bool            // WithOpTimeout was given (overrides the binding default)
	tp         TimeoutProvider // binding default bound, consulted per invocation
	gate       AdmissionGate   // WithAdmission; nil = every attempt admitted
	retry      *retryPolicy    // WithRetry; nil = failures are terminal
	trc        *trace.Tracer   // WithTracer; nil = tracing off
	trcTrack   trace.Track     // the client's span track ("client/<label>")
	opSeq      atomic.Uint64   // observer OpID source
}

// Option configures a Client at construction.
type Option func(*Client)

// WithObserver attaches an observer to the client's invoke pipeline; the
// option may be repeated, and observers are notified in attachment order.
// See Observer for the event contract.
func WithObserver(o Observer) Option {
	return func(c *Client) {
		c.obsList = append(c.obsList, o)
	}
}

// WithOpTimeout bounds every invocation through this client to d of model
// time: if no terminal transition happened within d of submission, the
// Correctable fails with an error wrapping faults.ErrUnreachable and late
// views are refused. It overrides the binding's default operation bound
// (TimeoutProvider); d <= 0 disables the bound entirely.
func WithOpTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d < 0 {
			d = 0
		}
		c.opTimeout = d
		c.timeoutSet = true
	}
}

// WithLabel names the client on observer events (OpInfo.Client), scoping
// per-session analysis when several clients share one observer.
func WithLabel(label string) Option {
	return func(c *Client) { c.label = label }
}

// NewClient wraps a binding. Correctables created through this client run
// on the binding's scheduler. If the binding implements TimeoutProvider,
// its default operation bound applies (WithOpTimeout overrides). The
// binding's consistency levels and scheduler are read once here; bindings
// whose level set changes over a client's lifetime are not supported.
func NewClient(b Binding, opts ...Option) *Client {
	c := &Client{b: b, sched: b.Scheduler(), levels: b.ConsistencyLevels().Sorted()}
	if len(c.levels) > 0 {
		c.weakSet = c.levels[:1]
		c.strongSet = c.levels[len(c.levels)-1:]
	}
	for _, opt := range opts {
		opt(c)
	}
	if !c.timeoutSet {
		if tp, ok := b.(TimeoutProvider); ok {
			c.tp = tp
		}
	}
	if c.trc != nil {
		// The tracer rides the observer pipeline for root op spans; track
		// resolution happens here so WithLabel/WithTracer order is free.
		c.trcTrack = c.trc.Track("client/" + c.label)
		c.obsList = append(c.obsList, NewTraceObserver(c.trc, c.trcTrack))
	}
	switch len(c.obsList) {
	case 0:
	case 1:
		c.obs = c.obsList[0]
	default:
		c.obs = c.obsList
	}
	return c
}

// OpTimeout returns the per-operation model-time bound an invocation
// issued now would run under (0 = unbounded): the WithOpTimeout override
// when given, the binding's current default otherwise. The binding default
// is consulted per invocation, so attaching a fault injector after client
// construction still arms the bound.
func (c *Client) OpTimeout() time.Duration {
	if c.timeoutSet {
		return c.opTimeout
	}
	if c.tp != nil {
		return c.tp.DefaultOpTimeout()
	}
	return 0
}

// now returns the current instant on the binding's clock.
func (c *Client) now() time.Duration { return c.sched.Now() }

// InvokeWeak executes op with the weakest available consistency level. The
// returned Correctable never transitions updating -> updating; it closes
// directly with the single result (§3.2).
func InvokeWeak[T any](ctx context.Context, c *Client, op OperationFor[T]) *core.Correctable[T] {
	if len(c.levels) == 0 {
		return core.Failed[T](fmt.Errorf("%w: binding advertises no levels", ErrUnsupportedLevel))
	}
	return submit(ctx, c, op, c.weakSet, nil)
}

// InvokeStrong executes op with the strongest available consistency level.
// The returned Correctable closes directly with the single result.
func InvokeStrong[T any](ctx context.Context, c *Client, op OperationFor[T]) *core.Correctable[T] {
	if len(c.levels) == 0 {
		return core.Failed[T](fmt.Errorf("%w: binding advertises no levels", ErrUnsupportedLevel))
	}
	return submit(ctx, c, op, c.strongSet, nil)
}

// Invoke executes op with incremental consistency guarantees: the returned
// Correctable delivers one view per requested level, weakest first, and
// closes with the strongest. If levels is empty, all levels offered by the
// binding are used (§3.2). Requesting a level the binding does not offer
// fails the Correctable.
func Invoke[T any](ctx context.Context, c *Client, op OperationFor[T], levels ...core.Level) *core.Correctable[T] {
	requested, err := c.requestedLevels(levels)
	if err != nil {
		return core.Failed[T](err)
	}
	return submit(ctx, c, op, requested, nil)
}

// requestedLevels maps an Invoke level list onto the binding's offer: the
// cached full set when empty, a freshly normalized subset otherwise.
func (c *Client) requestedLevels(levels []core.Level) (core.Levels, error) {
	if len(levels) == 0 {
		if len(c.levels) == 0 {
			return nil, fmt.Errorf("%w: binding advertises no levels", ErrUnsupportedLevel)
		}
		return c.levels, nil
	}
	requested := core.Levels(levels).Sorted()
	for _, l := range requested {
		if !c.levels.Contains(l) {
			return nil, fmt.Errorf("%w: %v (binding offers %v)", ErrUnsupportedLevel, l, c.levels)
		}
	}
	if len(requested) == 0 {
		return nil, fmt.Errorf("%w: empty level set", ErrUnsupportedLevel)
	}
	return requested, nil
}

// invocation bundles the consumer handle of one in-flight operation with
// what its optional features share. It is a small value — five words; the
// compiler copies a capture into a closure only up to 128 bytes and moves a
// larger one to the heap — captured by value in the delivery closures:
// terminal helpers use the Controller's verdict (only the transition that
// actually happened is observed), so duplicate binding callbacks and late
// post-timeout views produce exactly one OpEnd and no spurious OpViews.
type invocation[T any] struct {
	c     *Client
	ctrl  core.Controller[T]
	obs   *observedOp      // non-nil iff an observer is attached
	gov   *governedCall    // non-nil iff an admission gate or retry policy applies
	guard *timeoutGuard[T] // non-nil iff an operation timeout applies
}

// observedOp is an invocation's observer identity. Its mutex makes each
// (transition, emission) pair atomic, so observers never record an
// accepted view after the operation's end, or out of order. The bindings'
// clocks already order deliveries totally; the mutex is safety code that
// keeps the pair atomic for a binding that calls back from goroutines of
// its own.
type observedOp struct {
	mu   sync.Mutex
	info OpInfo
}

// timeoutGuard is what an armed operation-timeout timer holds in place of
// the invocation. Scheduler.After has no cancellation, so the timer
// outlives an operation that completes early; every terminal transition
// goes through invocation.close or invocation.fail, and those empty the
// guard. A completed operation's Correctable and views are therefore not
// kept alive for the rest of the timeout window, and the eventually-firing
// timer is a reference-free no-op. One guard serves every attempt of a
// governed invocation.
type timeoutGuard[T any] struct {
	d   time.Duration // the bound, resolved once per invocation
	mu  sync.Mutex
	inv invocation[T] // zero once the operation has closed
}

// disarm empties the invocation's timeout guard, if it has one.
func (inv invocation[T]) disarm() {
	if g := inv.guard; g != nil {
		g.mu.Lock()
		g.inv = invocation[T]{}
		g.mu.Unlock()
	}
}

// strongestNow returns the level that closes the Correctable: the frozen
// request strongest on the plain path, the current attempt's strongest on
// the governed path (an AdmissionDegrade attempt closes at the weakest
// level).
func (inv invocation[T]) strongestNow(fallback core.Level) core.Level {
	if inv.gov == nil {
		return fallback
	}
	return inv.gov.currentStrongest()
}

// fail closes the operation with err; reports whether this call closed it.
// On the governed path a retryable failure of a still-open invocation is
// converted into a scheduled re-submission instead (the op stays in
// flight; observers see neither an OpEnd nor a new OpStart — retries are
// internal to the one logical operation).
func (inv invocation[T]) fail(err error) bool {
	if inv.gov != nil &&
		inv.ctrl.Correctable().State() == core.StateUpdating &&
		inv.gov.tryRetry(inv.c, err) {
		return false
	}
	inv.disarm()
	if inv.obs == nil {
		return inv.ctrl.Fail(err) == nil
	}
	inv.obs.mu.Lock()
	defer inv.obs.mu.Unlock()
	if inv.ctrl.Fail(err) != nil {
		return false
	}
	inv.c.obs.OpEnd(inv.obs.info, inv.c.now(), err)
	return true
}

// update delivers a non-final view; reports whether it was accepted.
func (inv invocation[T]) update(v T, level core.Level, version uint64) bool {
	if inv.obs == nil {
		return inv.ctrl.Update(v, level) == nil
	}
	inv.obs.mu.Lock()
	defer inv.obs.mu.Unlock()
	if inv.ctrl.Update(v, level) != nil {
		return false
	}
	at := inv.c.now()
	inv.c.obs.OpView(inv.obs.info, OpView{Level: level, Version: version, At: at, Value: v})
	return true
}

// close delivers the final view; reports whether it was accepted.
func (inv invocation[T]) close(v T, level core.Level, version uint64) bool {
	inv.disarm()
	if inv.obs == nil {
		return inv.ctrl.Close(v, level) == nil
	}
	inv.obs.mu.Lock()
	defer inv.obs.mu.Unlock()
	if inv.ctrl.Close(v, level) != nil {
		return false
	}
	at := inv.c.now()
	inv.c.obs.OpView(inv.obs.info, OpView{Level: level, Final: true, Version: version, At: at, Value: v})
	inv.c.obs.OpEnd(inv.obs.info, at, nil)
	return true
}

// submit wires one SubmitOperation call to a fresh typed Correctable — the
// client's single invoke pipeline. The strongest requested level closes the
// Correctable; weaker levels update it. Responses that race past a terminal
// transition are dropped (the Controller refuses them), which also makes
// duplicate binding callbacks harmless. The wire value of each Result is
// decoded with op.ResultOf; a decode failure fails the Correctable. A
// non-nil sess threads session guarantees through the same pipeline:
// stale weaker views are suppressed, a stale final read is retried, and
// delivered version tokens advance the session's floors (see Session).
//
// When the client has an operation timeout (resolved here, once per
// invocation), a timer on the client's scheduler bounds the invocation: on
// expiry the Correctable fails with faults.ErrUnreachable; whatever
// protocol work the binding still has in flight runs to its end — at the
// latest when the fault clears — and its late views are refused.
//
// An admission gate (WithAdmission) or retry policy (WithRetry) switches
// the invocation onto the governed path: the gate is consulted before any
// protocol work (per attempt, retries included), an AdmissionDegrade
// verdict rewrites the level set to the binding's weakest so the
// Correctable honestly closes with the preliminary view, failures
// IsRetryable accepts are re-submitted with seeded backoff, and
// the operation timeout bounds each attempt rather than the whole
// invocation. Plain invocations never touch any of it — the hot path keeps
// its allocation budget.
func submit[T any](ctx context.Context, c *Client, op OperationFor[T], requested core.Levels, sess *Session) *core.Correctable[T] {
	cor, ctrl := core.NewScheduled[T](c.sched, requested)
	strongest := requested.Strongest()
	inv := invocation[T]{c: c, ctrl: ctrl}
	if c.obs != nil {
		inv.obs = &observedOp{info: opInfoOf(OpID(c.opSeq.Add(1)), c.label, op, requested, c.now())}
		c.obs.OpStart(inv.obs.info)
	}
	if c.gate != nil || c.retry != nil {
		g := &governed[T]{governedCall: governedCall{strongest: strongest}}
		g.loop = g
		inv.gov = &g.governedCall
	}
	if d := c.OpTimeout(); d > 0 {
		inv.guard = &timeoutGuard[T]{d: d}
		inv.guard.inv = inv // last: the copy the timer fails carries every field
	}
	if call := sess.newCall(op); call != nil {
		// Session path: the callback references itself so a stale final
		// can re-submit the operation; the self-capture costs one extra
		// allocation, which only session invocations pay. cb stays scoped
		// to this branch: a shared variable captured by this self-reference
		// would be heap-moved on the plain path too, breaking its budget.
		var cb Callback
		cb = func(r Result) {
			if r.Err != nil {
				inv.fail(r.Err)
				return
			}
			st := inv.strongestNow(strongest)
			switch call.check(r.Level == st, r.Version) {
			case sessionSuppress:
				return
			case sessionRetry:
				// Re-execute at the strongest requested level only: the
				// weaker levels were already delivered (or suppressed) by
				// the first execution, and re-running their protocol legs
				// would deliver duplicate views and duplicate traffic.
				// A closed Correctable (op timeout, binding error) refuses
				// every result, so don't burn store operations chasing a
				// token no consumer can observe. (Session re-reads bypass
				// the admission gate: they chase a token the session
				// already observed, at the cheapest level that can carry
				// it.)
				if inv.ctrl.Correctable().State() != core.StateUpdating {
					return
				}
				c.b.SubmitOperation(ctx, op, core.Levels{st}, cb)
				return
			case sessionFail:
				inv.fail(call.floorErr(r.Version))
				return
			}
			v, err := op.ResultOf(r.Value)
			switch {
			case err != nil:
				inv.fail(err)
			case r.Level == st:
				if inv.close(v, r.Level, r.Version) {
					call.observe(r.Version, true)
				}
			default:
				if inv.update(v, r.Level, r.Version) {
					call.observe(r.Version, false)
				}
			}
		}
		dispatch(ctx, inv, op, requested, cb)
	} else {
		// Plain path: one flat closure, no self-reference — the invoke hot
		// path stays at its pre-session allocation budget.
		dispatch(ctx, inv, op, requested, func(r Result) {
			if r.Err != nil {
				inv.fail(r.Err)
				return
			}
			v, err := op.ResultOf(r.Value)
			st := inv.strongestNow(strongest)
			switch {
			case err != nil:
				inv.fail(err)
			case r.Level == st:
				inv.close(v, r.Level, r.Version)
			default:
				inv.update(v, r.Level, r.Version)
			}
		})
	}
	return cor
}

// dispatch hands a wired callback to the binding: directly on the plain
// path (arming the whole-invocation timeout), through the governed attempt
// loop otherwise.
func dispatch[T any](ctx context.Context, inv invocation[T], op Operation, requested core.Levels, cb Callback) {
	if inv.gov == nil {
		inv.c.b.SubmitOperation(ctx, op, requested, cb)
		armTimeout(inv, 0)
		return
	}
	g := inv.gov.loop.(*governed[T])
	g.ctx, g.inv, g.op, g.requested, g.cb = ctx, inv, op, requested, cb
	g.attempt()
}

// governed is the attempt loop of one governed invocation as one record:
// the shared state every attempt and timer consults (governedCall) and
// what each attempt submits. Its attempt and resubmit are methods, so the
// loop costs the invocation this one allocation.
type governed[T any] struct {
	governedCall
	ctx       context.Context
	inv       invocation[T]
	op        Operation
	requested core.Levels
	cb        Callback
}

// attempt runs one attempt: it consults the admission gate, picks its
// level set (requested, or the binding's weakest under AdmissionDegrade),
// arms a fresh per-attempt timeout stamped with the attempt generation,
// and submits.
func (g *governed[T]) attempt() {
	inv, op := g.inv, g.op
	c := inv.c
	lv := g.requested
	if c.gate != nil {
		dec, err := c.gate.Admit(c.label, op)
		switch dec {
		case AdmissionReject:
			if err == nil {
				err = errRejectedNoReason
			}
			if c.trc != nil {
				c.trc.Instant(c.trcTrack, "admission.reject", "", c.now())
			}
			inv.fail(err)
			return
		case AdmissionDegrade:
			if !op.OpMutates() && len(c.weakSet) > 0 {
				lv = c.weakSet
				if c.trc != nil {
					c.trc.Instant(c.trcTrack, "admission.degrade", "", c.now())
				}
			}
		}
	}
	gen := g.begin(lv.Strongest())
	armTimeout(inv, gen)
	c.b.SubmitOperation(g.ctx, op, lv, g.cb)
}

// resubmit re-runs the attempt if the Correctable is still open: a
// closed one (op timeout, terminal failure) stops the loop.
// invocation.fail schedules it when the retry policy grants a retry.
func (g *governed[T]) resubmit() {
	if g.inv.ctrl.Correctable().State() == core.StateUpdating {
		g.attempt()
	}
}

// armTimeout bounds one attempt to the invocation's operation timeout (a
// no-op without one). The timer reaches the invocation through its
// timeoutGuard, so an attempt that has already closed — a synchronous
// binding closes inside SubmitOperation, before the plain path arms — costs
// a timer that finds the guard empty. On the governed path gen stamps the
// attempt: a timer whose attempt a retry has already superseded is a no-op
// too (the retry armed its own), so a slow timer never fails a newer
// attempt.
func armTimeout[T any](inv invocation[T], gen int) {
	g := inv.guard
	if g == nil {
		return
	}
	inv.c.sched.After(g.d, func() {
		g.mu.Lock()
		iv := g.inv
		g.mu.Unlock()
		if iv.c == nil {
			return
		}
		if iv.gov != nil && iv.gov.generation() != gen {
			return
		}
		iv.fail(fmt.Errorf("%w: no terminal view within %v (client op timeout)", faults.ErrUnreachable, g.d))
	})
}
