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

// invocation is the record of one operation that needs more than the plain
// path: an observer, a session, an operation timeout, or an admission gate
// or retry policy (the governed path). Its one allocation holds the
// observer identity, the session's floor and retries, the governed
// attempt's level and spent retries, the callback's self-reference and the
// deadline with its timer; what the operation itself can tell (its name,
// key and kind) it does not copy. Terminal helpers use the Controller's
// verdict (only the transition that actually happened is observed), so
// duplicate binding callbacks and late post-timeout views produce exactly
// one OpEnd and no spurious OpViews.
type invocation[T any] struct {
	c    *Client
	ctrl core.Controller[T]
	ctx  context.Context
	op   OperationFor[T]
	cb   Callback // deliver, bound once: every attempt and session re-read submits it

	// mu makes each (transition, emission) pair atomic, so observers never
	// record an accepted view after the operation's end, or out of order,
	// and guards the governed fields. The bindings' clocks already order
	// deliveries totally; the mutex is safety code for a binding that calls
	// back from goroutines of its own.
	mu     sync.Mutex
	id     OpID          // observer identity; 0 unless an observer is attached
	start  time.Duration // submission instant, when observed
	levels core.Levels   // the request

	sess        sessionCall // sess.s is nil unless a session applies
	sessRetries int32       // session re-reads left
	retries     int32       // governed retries spent
	// strongest is the level that closes the Correctable: the request's,
	// or under an admission gate the current attempt's (an
	// AdmissionDegrade attempt closes at the weakest level).
	strongest core.Level
	d         time.Duration // the operation bound, resolved once; 0 = none
	// timer is the attempt's deadline, rung as the record itself, or a
	// retry's backoff, rung as its retryBackoff.
	timer core.Timer
}

// info is the invocation's identity as observers see it.
func (inv *invocation[T]) info() OpInfo {
	return opInfoOf(inv.id, inv.c.label, inv.op, inv.levels, inv.start)
}

// governed reports whether an admission gate or retry policy applies.
func (c *Client) governed() bool { return c.gate != nil || c.retry != nil }

// strongestNow returns the level that closes the Correctable now.
func (inv *invocation[T]) strongestNow() core.Level {
	if inv.c.gate == nil {
		return inv.strongest
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.strongest
}

// stop cancels the record's timer, if it can have armed one.
func (inv *invocation[T]) stop() {
	if inv.d > 0 || inv.c.retry != nil {
		inv.c.sched.Stop(&inv.timer)
	}
}

// fail closes the operation with err; reports whether this call closed it.
// On the governed path a retryable failure of a still-open invocation is
// converted into a scheduled re-submission instead (the op stays in
// flight; observers see neither an OpEnd nor a new OpStart — retries are
// internal to the one logical operation).
func (inv *invocation[T]) fail(err error) bool {
	if inv.c.governed() &&
		inv.ctrl.Correctable().State() == core.StateUpdating &&
		inv.tryRetry(err) {
		return false
	}
	inv.stop()
	if inv.c.obs == nil {
		return inv.ctrl.Fail(err) == nil
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.ctrl.Fail(err) != nil {
		return false
	}
	inv.c.obs.OpEnd(inv.info(), inv.c.now(), err)
	return true
}

// update delivers r, decoded as v, as a non-final view; reports whether it
// was accepted. Observers get r's own wire box, not v boxed again.
func (inv *invocation[T]) update(v T, r Result) bool {
	if inv.c.obs == nil {
		return inv.ctrl.Update(v, r.Level) == nil
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.ctrl.Update(v, r.Level) != nil {
		return false
	}
	at := inv.c.now()
	inv.c.obs.OpView(inv.info(), OpView{Level: r.Level, Version: r.Version, At: at, Value: r.Value})
	return true
}

// close delivers r, decoded as v, as the final view; reports whether it was
// accepted.
func (inv *invocation[T]) close(v T, r Result) bool {
	inv.stop()
	if inv.c.obs == nil {
		return inv.ctrl.Close(v, r.Level) == nil
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.ctrl.Close(v, r.Level) != nil {
		return false
	}
	at := inv.c.now()
	info := inv.info()
	inv.c.obs.OpView(info, OpView{Level: r.Level, Final: true, Version: r.Version, At: at, Value: r.Value})
	inv.c.obs.OpEnd(info, at, nil)
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
// invocation), the record's timer bounds the invocation: on expiry the
// Correctable fails with faults.ErrUnreachable; whatever protocol work the
// binding still has in flight runs to its end — at the latest when the
// fault clears — and its late views are refused. An operation that ends
// first stops the timer, so a closed operation leaves no deadline behind.
//
// An admission gate (WithAdmission) or retry policy (WithRetry) switches
// the invocation onto the governed path: the gate is consulted before any
// protocol work (per attempt, retries included), an AdmissionDegrade
// verdict rewrites the level set to the binding's weakest so the
// Correctable honestly closes with the preliminary view, failures
// IsRetryable accepts are re-submitted with seeded backoff, and
// the operation timeout bounds each attempt rather than the whole
// invocation. Plain invocations — no observer, session, timeout or
// governance — allocate no record: the hot path keeps its allocation
// budget.
func submit[T any](ctx context.Context, c *Client, op OperationFor[T], requested core.Levels, sess *Session) *core.Correctable[T] {
	cor, ctrl := core.NewScheduled[T](c.sched, requested)
	strongest := requested.Strongest()
	if sess != nil && op.OpKey() == "" {
		sess = nil // nothing to hold the guarantees of
	}
	d := c.OpTimeout()
	if c.obs == nil && sess == nil && d <= 0 && !c.governed() {
		// Plain path: one flat closure.
		c.b.SubmitOperation(ctx, op, requested, func(r Result) {
			if r.Err != nil {
				ctrl.Fail(r.Err)
				return
			}
			v, err := op.ResultOf(r.Value)
			switch {
			case err != nil:
				ctrl.Fail(err)
			case r.Level == strongest:
				ctrl.Close(v, r.Level)
			default:
				ctrl.Update(v, r.Level)
			}
		})
		return cor
	}
	inv := &invocation[T]{c: c, ctrl: ctrl, ctx: ctx, op: op, levels: requested, strongest: strongest, d: d}
	inv.cb = inv.deliver
	if c.obs != nil {
		inv.id, inv.start = OpID(c.opSeq.Add(1)), c.now()
		c.obs.OpStart(inv.info())
	}
	if sess != nil {
		inv.sess, inv.sessRetries = sess.newCall(op.OpKey()), sessionRetries
	}
	if c.governed() {
		inv.attempt()
		return cor
	}
	c.b.SubmitOperation(ctx, op, requested, inv.cb)
	if d > 0 && ctrl.Correctable().State() == core.StateUpdating {
		c.sched.After(d, &inv.timer, inv)
	}
	return cor
}

// deliver is the binding's callback: it threads one Result through the
// session's checks, if any, and into the Correctable.
func (inv *invocation[T]) deliver(r Result) {
	if r.Err != nil {
		inv.fail(r.Err)
		return
	}
	st := inv.strongestNow()
	if inv.sess.s != nil {
		switch inv.sess.check(r.Level == st, r.Version, inv.op.OpMutates(), &inv.sessRetries) {
		case sessionSuppress:
			return
		case sessionRetry:
			// Re-execute at the strongest requested level only: the
			// weaker levels were already delivered (or suppressed) by the
			// first execution, and re-running their protocol legs would
			// deliver duplicate views and duplicate traffic. A closed
			// Correctable (op timeout, binding error) refuses every
			// result, so don't burn store operations chasing a token no
			// consumer can observe. (Session re-reads bypass the
			// admission gate: they chase a token the session already
			// observed, at the cheapest level that can carry it.)
			if inv.ctrl.Correctable().State() != core.StateUpdating {
				return
			}
			inv.c.b.SubmitOperation(inv.ctx, inv.op, core.Levels{st}, inv.cb)
			return
		case sessionFail:
			inv.fail(inv.sess.floorErr(inv.op.OpKey(), r.Version))
			return
		}
	}
	v, err := inv.op.ResultOf(r.Value)
	switch {
	case err != nil:
		inv.fail(err)
	case r.Level == st:
		if inv.close(v, r) && inv.sess.s != nil {
			inv.sess.s.observe(inv.op.OpKey(), r.Version, inv.op.OpMutates())
		}
	default:
		if inv.update(v, r) && inv.sess.s != nil {
			inv.sess.s.observe(inv.op.OpKey(), r.Version, false)
		}
	}
}

// attempt runs one governed attempt: it consults the admission gate, picks
// its level set (requested, or the binding's weakest under
// AdmissionDegrade), arms the attempt's deadline and submits.
func (inv *invocation[T]) attempt() {
	c, op := inv.c, inv.op
	lv := inv.levels
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
		inv.mu.Lock()
		inv.strongest = lv.Strongest()
		inv.mu.Unlock()
	}
	if inv.d > 0 {
		c.sched.After(inv.d, &inv.timer, inv)
	}
	c.b.SubmitOperation(inv.ctx, op, lv, inv.cb)
}

// Ring is the record's timer as the deadline of the operation (of the
// attempt, on the governed path): it fails the operation.
func (inv *invocation[T]) Ring() {
	inv.fail(fmt.Errorf("%w: no terminal view within %v (client op timeout)", faults.ErrUnreachable, inv.d))
}

// retryBackoff is the record as the alarm of a retry's backoff: the same
// pointer, so arming it allocates nothing.
type retryBackoff[T any] invocation[T]

// Ring re-runs the attempt if the Correctable is still open: a closed one
// (a late view, a terminal failure) stops the loop.
func (b *retryBackoff[T]) Ring() {
	inv := (*invocation[T])(b)
	if inv.ctrl.Correctable().State() == core.StateUpdating {
		inv.attempt()
	}
}

// tryRetry converts a failure into a scheduled re-submission when the
// client's policy allows; reports whether it did. Arming the backoff stops
// the failing attempt's deadline.
func (inv *invocation[T]) tryRetry(err error) bool {
	c := inv.c
	p := c.retry
	if p == nil || !IsRetryable(err) {
		return false
	}
	inv.mu.Lock()
	if int(inv.retries) >= p.Max {
		inv.mu.Unlock()
		return false
	}
	inv.retries++
	n := int(inv.retries)
	inv.mu.Unlock()
	d := p.delay(n)
	if p.OnRetry != nil {
		p.OnRetry(n, d, err)
	}
	if c.trc != nil {
		// The backoff window is admission-plane time: the op is alive but
		// deliberately parked.
		now := c.now()
		c.trc.Span(c.trcTrack, trace.CatAdmission, "backoff", "", now, now+d)
	}
	c.sched.After(d, &inv.timer, (*retryBackoff[T])(inv))
	return true
}
