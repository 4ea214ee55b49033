// Package correctables is the public API of the Correctables library: an
// abstraction for programming and speculating with replicated objects,
// reproducing "Incremental Consistency Guarantees for Replicated Objects"
// (Guerraoui, Pavlovic, Seredinschi — OSDI 2016).
//
// # Overview
//
// A Correctable generalizes a Promise: instead of one future value it
// represents several incremental views of the result of one operation on a
// replicated object, each view satisfying a stronger consistency level than
// the previous. The API is generic: a Correctable[T] delivers View[T], so
// applications never see interface{} and never assert types.
//
// Applications obtain Correctables through a Client bound to a storage
// binding, using the typed Invoke functions (see ExampleInvoke and the
// other Example functions for runnable versions of the snippets below):
//
//	client := correctables.NewClient(myBinding)
//
//	// Single-level access, one view (c is a *Correctable[[]byte]):
//	c := correctables.InvokeWeak(ctx, client, correctables.Get{Key: "user:42"})
//	c := correctables.InvokeStrong(ctx, client, correctables.Get{Key: "user:42"})
//
//	// Incremental consistency guarantees (ICG), one view per level:
//	refs := correctables.Invoke(ctx, client, correctables.Get{Key: "ads:7"})
//	correctables.Speculate(refs, fetchAds, nil).SetCallbacks(correctables.Callbacks[[]Ad]{
//		OnFinal: func(v correctables.View[[]Ad]) { deliver(v.Value) },
//	})
//
// Speculate hides the latency of strong consistency: the speculation
// function runs on the preliminary (fast, possibly stale) view, and is
// automatically re-executed if the final view diverges.
//
// # Typed operations
//
// Every operation declares its result type: Get yields []byte, Put yields
// Ack, Enqueue/Dequeue yield Item. Invoke[T] accepts any OperationFor[T],
// so the compiler connects the operation to the view type. The per-store
// facades (cassandra.KV, causal.KV, zk.Queue) wrap this once more, giving
// method-style access (kv.Get(ctx, key) → *Correctable[[]byte]).
//
// # Sessions and observers
//
// NewClient takes functional options: WithObserver hooks the invoke
// pipeline (every operation's start, views and end, with model-time
// timestamps and per-view consistency levels — the recording surface the
// internal/history checkers build on), WithOpTimeout bounds every
// invocation in model time, WithLabel names the client on observer events.
//
// A Session (NewSession) threads cross-operation guarantees over a client:
// operations issued through it are read-your-writes and monotonic-reads
// consistent per object, enforced with the version tokens the bindings
// stamp on every view. See ExampleNewSession.
//
// # Bindings
//
// A binding encapsulates everything storage-specific (§5 of the paper):
// quorum sizes, cache coherence, leader forwarding. This repository ships
// bindings for a quorum-replicated key-value store modeled on Cassandra
// (internal/cassandra), a replicated queue service modeled on ZooKeeper
// (internal/zk), a causally consistent store with a client-side cache
// (internal/causal), and a confirmation-tracking blockchain
// (internal/chain). Implement the Binding interface to add another store.
package correctables

import (
	"context"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// Core generic types, re-exported as aliases from the implementation
// packages.
type (
	// Correctable represents the progressively improving result of an
	// operation on a replicated object with value type T.
	Correctable[T any] = core.Correctable[T]
	// Controller is the producer-side handle used by bindings and tests.
	Controller[T any] = core.Controller[T]
	// View is one incremental view: a typed value plus its consistency
	// level.
	View[T any] = core.View[T]
	// Callbacks bundles the OnUpdate/OnFinal/OnError callbacks.
	Callbacks[T any] = core.Callbacks[T]
	// SpecFunc is a speculation function (see Speculate).
	SpecFunc[In, Out any] = core.SpecFunc[In, Out]
	// AbortFunc undoes a superseded speculation's side effects.
	AbortFunc[In, Out any] = core.AbortFunc[In, Out]
	// Equaler customizes divergence checks for view values of type T.
	Equaler[T any] = core.Equaler[T]

	// Level identifies a consistency level.
	Level = core.Level
	// Levels is an ordered set of consistency levels.
	Levels = core.Levels
	// State is a Correctable lifecycle state.
	State = core.State
	// Scheduler abstracts how Correctables spawn goroutines, block, and
	// read time; simulation substrates supply their clock's scheduler.
	Scheduler = core.Scheduler
	// Event is the one-shot broadcast used by Scheduler implementations.
	Event = core.Event

	// Client is the application-facing, consistency-based interface.
	Client = binding.Client
	// Option configures a Client at construction (see NewClient).
	Option = binding.Option
	// Session threads read-your-writes and monotonic-reads guarantees over
	// a sequence of operations (see NewSession).
	Session = binding.Session
	// Observer hooks the client invoke pipeline (WithObserver).
	Observer = binding.Observer
	// Observers fans events out to several observers.
	Observers = binding.Observers
	// OpInfo identifies one invocation on the pipeline.
	OpInfo = binding.OpInfo
	// OpView is one delivered view as observers see it.
	OpView = binding.OpView
	// OpID is a per-client invocation sequence number.
	OpID = binding.OpID
	// Binding is the storage-binding interface (§5.1).
	Binding = binding.Binding
	// Operation is a request against a replicated object.
	Operation = binding.Operation
	// OperationFor is a typed operation whose result decodes to T.
	OperationFor[T any] = binding.OperationFor[T]
	// Result is one binding response (the monomorphic wire type).
	Result = binding.Result
	// Callback receives incremental results from a binding.
	Callback = binding.Callback

	// AdmissionGate decides per invocation attempt whether the coordinator
	// should do the work at all (WithAdmission). internal/load ships the
	// token-bucket + AIMD controller used by the overload experiment.
	AdmissionGate = binding.AdmissionGate
	// AdmissionDecision is a gate's verdict: admit, degrade to the weakest
	// level, or reject.
	AdmissionDecision = binding.AdmissionDecision
	// RetryPolicy configures client-side re-submission of failed
	// invocations (WithRetry): capped exponential backoff with seeded
	// jitter.
	RetryPolicy = binding.RetryPolicy

	// Get reads a key (result: []byte). Put writes a key (result: Ack).
	// Enqueue/Dequeue operate on replicated queue objects (result: Item).
	Get     = binding.Get
	Put     = binding.Put
	Enqueue = binding.Enqueue
	Dequeue = binding.Dequeue
	// Ack is the typed result of write-style operations.
	Ack = binding.Ack
	// Item is the typed result of queue operations.
	Item = binding.Item
)

// Consistency levels, weakest to strongest.
const (
	LevelNone   = core.LevelNone
	LevelCache  = core.LevelCache
	LevelWeak   = core.LevelWeak
	LevelCausal = core.LevelCausal
	LevelStrong = core.LevelStrong
)

// Correctable lifecycle states (Figure 3 of the paper).
const (
	StateUpdating = core.StateUpdating
	StateFinal    = core.StateFinal
	StateError    = core.StateError
)

// Admission verdicts (see AdmissionGate).
const (
	AdmissionAdmit   = binding.AdmissionAdmit
	AdmissionDegrade = binding.AdmissionDegrade
	AdmissionReject  = binding.AdmissionReject
)

// Errors.
var (
	// ErrClosed is returned by Controller methods after closure.
	ErrClosed = core.ErrClosed
	// ErrNoView is returned when waiting for a level that never arrives.
	ErrNoView = core.ErrNoView
	// ErrUnsupportedOperation is wrapped by bindings rejecting an operation.
	ErrUnsupportedOperation = binding.ErrUnsupportedOperation
	// ErrUnsupportedLevel is wrapped by bindings rejecting a level.
	ErrUnsupportedLevel = binding.ErrUnsupportedLevel
	// ErrSessionGuarantee fails a session invocation whose final view
	// stayed below the session's floor after the session's retries.
	ErrSessionGuarantee = binding.ErrSessionGuarantee
)

// NewClient wraps a binding in the application-facing Client, configured
// with functional options (WithObserver, WithOpTimeout, WithLabel,
// WithAdmission, WithRetry).
func NewClient(b Binding, opts ...Option) *Client { return binding.NewClient(b, opts...) }

// WithObserver attaches an observer to the client's invoke pipeline (may
// be repeated; observers are notified in attachment order).
func WithObserver(o Observer) Option { return binding.WithObserver(o) }

// WithOpTimeout bounds every invocation through the client to d of model
// time, failing with an error wrapping faults.ErrUnreachable on expiry;
// d <= 0 disables the bound.
func WithOpTimeout(d time.Duration) Option { return binding.WithOpTimeout(d) }

// WithLabel names the client on observer events.
func WithLabel(label string) Option { return binding.WithLabel(label) }

// WithAdmission routes every invocation attempt through gate — before any
// protocol work, retries included. Several clients may share one gate; the
// WithLabel identity keys per-client state.
func WithAdmission(gate AdmissionGate) Option { return binding.WithAdmission(gate) }

// WithRetry attaches a retry policy: failures IsRetryable classifies as
// retryable (timeouts, admission rejections) are re-submitted with seeded
// exponential backoff.
func WithRetry(p RetryPolicy) Option { return binding.WithRetry(p) }

// IsRetryable is the retry classification: true for errors wrapping
// faults.ErrUnreachable or declaring Retryable() true.
func IsRetryable(err error) bool { return binding.IsRetryable(err) }

// NewSession opens a session over c: operations issued through it observe
// read-your-writes and monotonic reads per replicated object (enforced
// with the bindings' version tokens — stale preliminary views are
// suppressed, stale final reads retried).
func NewSession(c *Client) *Session { return binding.NewSession(c) }

// SessionInvoke executes op through s with incremental consistency
// guarantees plus the session's cross-operation guarantees.
func SessionInvoke[T any](ctx context.Context, s *Session, op OperationFor[T], levels ...Level) *Correctable[T] {
	return binding.SessionInvoke[T](ctx, s, op, levels...)
}

// SessionInvokeWeak executes op at the weakest offered level with session
// guarantees (a stale weak read is re-executed until replication catches
// up).
func SessionInvokeWeak[T any](ctx context.Context, s *Session, op OperationFor[T]) *Correctable[T] {
	return binding.SessionInvokeWeak[T](ctx, s, op)
}

// SessionInvokeStrong executes op at the strongest offered level with
// session guarantees.
func SessionInvokeStrong[T any](ctx context.Context, s *Session, op OperationFor[T]) *Correctable[T] {
	return binding.SessionInvokeStrong[T](ctx, s, op)
}

// Invoke executes op with incremental consistency guarantees: one view per
// requested level (all levels the binding offers when none are given),
// weakest first, closing with the strongest (§3.2).
func Invoke[T any](ctx context.Context, c *Client, op OperationFor[T], levels ...Level) *Correctable[T] {
	return binding.Invoke[T](ctx, c, op, levels...)
}

// InvokeWeak executes op at the weakest available level (single view).
func InvokeWeak[T any](ctx context.Context, c *Client, op OperationFor[T]) *Correctable[T] {
	return binding.InvokeWeak[T](ctx, c, op)
}

// InvokeStrong executes op at the strongest available level (single view).
func InvokeStrong[T any](ctx context.Context, c *Client, op OperationFor[T]) *Correctable[T] {
	return binding.InvokeStrong[T](ctx, c, op)
}

// New creates an unresolved Correctable and its Controller (for binding
// implementations and tests).
func New[T any]() (*Correctable[T], Controller[T]) { return core.New[T]() }

// Speculate applies spec to every distinct view of c, re-executing on
// divergence; the result type may differ from the source type (§4.2).
func Speculate[In, Out any](c *Correctable[In], spec SpecFunc[In, Out], abort AbortFunc[In, Out]) *Correctable[Out] {
	return core.Speculate(c, spec, abort)
}

// Failed returns an already-errored Correctable.
func Failed[T any](err error) *Correctable[T] { return core.Failed[T](err) }

// ValuesEqual reports view-value equality as used for confirmation and
// misspeculation detection (Equaler[T] when implemented, bytes.Equal for
// []byte, reflect.DeepEqual otherwise).
func ValuesEqual[T any](a, b T) bool { return core.ValuesEqual(a, b) }
