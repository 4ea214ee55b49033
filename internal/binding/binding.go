// Package binding defines the storage-binding API of the paper (§5.1) and
// the client library that turns binding callbacks into Correctables (§3.2).
//
// A binding encapsulates everything that is storage-system specific: the
// concrete storage stack configuration, the consistency levels it offers,
// and the protocols implementing them (quorum selection, cache coherence,
// leader forwarding, ...). The library side is store-agnostic: it translates
// API calls (InvokeWeak / InvokeStrong / Invoke) into SubmitOperation calls
// and orchestrates the responses into Correctable state transitions.
//
// The wire between the client library and a binding is deliberately
// monomorphic (Result carries an `any` value), so a binding implementation
// is one concrete type whatever the operations' value types are. Typing is
// restored one layer up: every concrete operation implements
// OperationFor[T] by declaring how its wire value decodes to T, and the
// generic Invoke/InvokeWeak/InvokeStrong adapters instantiate per T, so
// applications only ever see core.Correctable[T].
package binding

import (
	"context"
	"fmt"
	"slices"
	"time"

	"correctables/internal/core"
)

// Operation is a request against a replicated object. Concrete operation
// types are shared across stores where the data model allows (Get/Put for
// key-value stores, Enqueue/Dequeue for queue objects); a binding rejects
// operations its store does not support.
type Operation interface {
	// OpName returns a short human-readable operation name ("get", ...).
	OpName() string
	// OpKey returns the replicated-object identity the operation targets
	// (the key of a key-value operation, the queue name of a queue
	// operation, the transaction ID of a chain submission), "" for an
	// unkeyed operation. Sessions use it to scope per-object guarantees and
	// the history recorder uses it to partition histories per object;
	// unkeyed operations bypass both.
	OpKey() string
	// OpMutates classifies the operation as state-changing. Sessions use it
	// to decide which version tokens an operation refreshes: mutating
	// operations advance the last-written token, observing operations
	// advance the last-read token (a Dequeue is both). Admission control
	// degrades only operations that do not mutate.
	OpMutates() bool
}

// OperationFor is a typed operation: an Operation that also declares its
// result type T and how a wire-level result value decodes into it. All
// operations in this repository implement it (Get → []byte, Put → Ack,
// Enqueue/Dequeue → Item, chain.SubmitTx → chain.TxStatus); bindings stay
// monomorphic and the generic Invoke adapters instantiate per T.
type OperationFor[T any] interface {
	Operation
	// ResultOf converts a wire-level result value into T. It is called once
	// per delivered view, on the binding's delivery path; implementations
	// must be cheap and must not retain v.
	ResultOf(v any) (T, error)
}

// Ack is the typed result of write-style operations (Put, Enqueue when the
// element identity is irrelevant): the operation was applied at the view's
// consistency level, and there is no payload.
type Ack struct{}

// Item is the typed result of queue operations (Enqueue, Dequeue): the
// element the operation settled on, plus the remaining queue length. On
// preliminary views both are estimates from the contact server's local
// simulation.
type Item struct {
	// ID identifies the element within its queue (e.g. the ZooKeeper
	// sequential znode name). Empty when Exists is false.
	ID string
	// Data is the element payload (nil when Exists is false): the store's
	// own buffer, shared and immutable like every view's bytes (see Result).
	Data []byte
	// Exists reports whether the operation found/produced an element; a
	// Dequeue of an empty queue yields Exists == false.
	Exists bool
	// Remaining is the queue length after the operation (an estimate on
	// preliminary views).
	Remaining int
}

// EqualValue implements core.Equaler[Item]: divergence (for speculation and
// confirmation) is judged on the element identity only — Data is determined
// by ID, and Remaining is an estimate on preliminary views.
func (i Item) EqualValue(other Item) bool {
	return i.Exists == other.Exists && i.ID == other.ID
}

// Get reads the value of a key.
type Get struct{ Key string }

// OpName implements Operation.
func (Get) OpName() string { return "get" }

// OpKey implements Operation.
func (g Get) OpKey() string { return g.Key }

// OpMutates implements Operation: reads change nothing.
func (Get) OpMutates() bool { return false }

// ResultOf implements OperationFor[[]byte].
func (Get) ResultOf(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("binding: get result is %T, want []byte", v)
	}
	return b, nil
}

// Put writes the value of a key.
type Put struct {
	Key   string
	Value []byte
}

// OpName implements Operation.
func (Put) OpName() string { return "put" }

// OpKey implements Operation.
func (p Put) OpKey() string { return p.Key }

// OpMutates implements Operation.
func (Put) OpMutates() bool { return true }

// ResultOf implements OperationFor[Ack].
func (Put) ResultOf(any) (Ack, error) { return Ack{}, nil }

// decodeItem is the shared Enqueue/Dequeue decoder.
func decodeItem(v any) (Item, error) {
	if v == nil {
		return Item{}, nil
	}
	it, ok := v.(Item)
	if !ok {
		return Item{}, fmt.Errorf("binding: queue result is %T, want Item", v)
	}
	return it, nil
}

// Enqueue appends an item to a replicated queue object.
type Enqueue struct {
	Queue string
	Item  []byte
}

// OpName implements Operation.
func (Enqueue) OpName() string { return "enqueue" }

// OpKey implements Operation.
func (e Enqueue) OpKey() string { return e.Queue }

// OpMutates implements Operation.
func (Enqueue) OpMutates() bool { return true }

// ResultOf implements OperationFor[Item].
func (Enqueue) ResultOf(v any) (Item, error) { return decodeItem(v) }

// Dequeue removes the head element of a replicated queue object.
type Dequeue struct{ Queue string }

// OpName implements Operation.
func (Dequeue) OpName() string { return "dequeue" }

// OpKey implements Operation.
func (d Dequeue) OpKey() string { return d.Queue }

// OpMutates implements Operation: a dequeue both observes and mutates.
func (Dequeue) OpMutates() bool { return true }

// ResultOf implements OperationFor[Item].
func (Dequeue) ResultOf(v any) (Item, error) { return decodeItem(v) }

// Result is one response from the storage, carrying the consistency level
// it satisfies. A binding invokes the callback once per requested level (or
// once with Err set). Value is the monomorphic wire representation; the
// typed adapters decode it with the operation's ResultOf.
//
// Bytes inside Value (a get's []byte, an Item's Data) are shared and
// immutable: a store copies a value once, on its way in (CopyIn), and every
// view of it — and every replica, hint, repair and snapshot behind the
// binding — aliases that one buffer. Retain them freely, never modify them.
type Result struct {
	Value interface{}
	Level core.Level
	Err   error
	// Version is the per-object version token of the state this view
	// reflects: the LWW timestamp of a quorum store, the zxid of a totally
	// ordered log, the block height of a chain. 0 means unversioned — the
	// view observed object absence in a store whose tokens start at 1, or
	// the binding stamps no tokens at all. Tokens are monotonically
	// increasing per object; sessions compare them to enforce
	// read-your-writes and monotonic reads, and history checkers compare
	// them across clients.
	Version uint64
}

// Callback receives incremental results from a binding.
type Callback func(Result)

// CopyIn is the one copy a store makes of a value: where a caller's buffer
// enters it (a write, a preload, an enqueue). From there on the bytes are
// immutable and everything inside the store and every view handed out
// aliases them. The copy is clipped to cap == len, so a consumer's append
// reallocates instead of scribbling into spare capacity every other holder
// shares.
func CopyIn(b []byte) []byte {
	return slices.Clip(append([]byte(nil), b...)) // the copy
}

// Binding is the interface every storage binding implements (§5.1).
type Binding interface {
	// ConsistencyLevels advertises the supported levels, ordered weakest to
	// strongest.
	ConsistencyLevels() core.Levels
	// SubmitOperation executes op against the underlying storage with the
	// requested consistency levels, invoking cb once for each level as the
	// corresponding view becomes available (weakest first), or once with an
	// error. SubmitOperation must not block the caller; the protocol runs
	// on binding-managed goroutines.
	SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback)
	// Close releases binding resources.
	Close() error
}

// TimeoutProvider is the optional Binding interface supplying the default
// per-operation model-time bound for clients of this binding. The client
// library arms one timer per invocation (see NewClient): an operation with
// no terminal transition within the bound fails with faults.ErrUnreachable
// and late views are refused by the closed Correctable. Bindings over a
// faultable substrate return their store's OpTimeout when a fault
// interceptor is attached and 0 (unbounded) otherwise, so fault-free runs
// pay nothing; WithOpTimeout overrides per client. DefaultOpTimeout is
// consulted on every invocation, so attaching a fault injector after
// client construction still arms the bound (and it must be cheap — a
// field read and a nil check in the shipped bindings).
type TimeoutProvider interface {
	DefaultOpTimeout() time.Duration
}

// ErrUnsupportedOperation is wrapped by bindings rejecting an operation
// their store cannot execute.
var ErrUnsupportedOperation = fmt.Errorf("binding: unsupported operation")

// ErrUnsupportedLevel is wrapped by bindings rejecting a consistency level
// they do not offer.
var ErrUnsupportedLevel = fmt.Errorf("binding: unsupported consistency level")
