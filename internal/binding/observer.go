package binding

import (
	"time"

	"correctables/internal/core"
)

// OpID identifies one invocation within a Client (sequential from 1). The
// pair (client label, OpID) is unique across a simulation when labels are.
type OpID uint64

// OpInfo identifies one invocation on the invoke pipeline: the operation's
// identity and shape, fixed at OpStart. All timestamps an observer sees are
// on the client scheduler's time axis — model time under a simulation
// clock, so recorded histories replay byte-identically from a seed.
type OpInfo struct {
	// ID is the per-client invocation sequence number.
	ID OpID
	// Client is the client's label (WithLabel), scoping per-session
	// analysis when several clients share one observer.
	Client string
	// Name is Operation.OpName ("get", "put", "enqueue", ...).
	Name string
	// Key is Operation.OpKey: the replicated-object identity, "" for
	// unkeyed ops.
	Key string
	// Mutating is Operation.OpMutates.
	Mutating bool
	// Levels is the normalized requested level set (shared; do not mutate).
	Levels core.Levels
	// Start is the invocation instant.
	Start time.Duration
}

// OpView is one delivered view as the observer sees it: the consistency
// level it satisfies, its version token, and its delivery instant. Only
// views the application actually observes are reported — a view refused by
// an already-closed Correctable (late after a timeout, duplicate binding
// callback) never reaches observers.
type OpView struct {
	// Level is the consistency level this view satisfies.
	Level core.Level
	// Final reports the closing view.
	Final bool
	// Version is the view's version token (see Result.Version).
	Version uint64
	// At is the delivery instant.
	At time.Duration
	// Value is the view's wire value: the binding's own Result.Value, the
	// box the application's T was decoded from, handed on without a copy.
	// It is shared with the store and immutable (see Result.Value):
	// observers must not modify it; the history recorder keeps only a
	// compact rendering. A write's value is whatever its binding sent (nil
	// for a cassandra or causal put, whose T is Ack).
	Value any
}

// Observer hooks the client invoke pipeline. The three callbacks frame
// every invocation: OpStart once at submission, OpView once per delivered
// view (weakest first, the last one Final), and OpEnd exactly once with the
// terminal outcome — nil after a final view, the failure otherwise
// (including faults.ErrUnreachable on an operation timeout).
//
// A view's value (OpView.Value) is the binding's Result.Value, shared and
// immutable, not the decoded T re-boxed: for a write it is whatever the
// binding sent.
//
// Callbacks run inline on the delivery path — binding actors and clock
// callback timers — so they must be cheap and must not block through the
// simulation scheduler. Under a VirtualClock they are totally ordered and
// deterministic; an observer that appends to a slice under a mutex records
// the same history for the same seed, byte for byte.
type Observer interface {
	OpStart(op OpInfo)
	OpView(op OpInfo, v OpView)
	OpEnd(op OpInfo, at time.Duration, err error)
}

// Observers fans events out to several observers in order.
type Observers []Observer

// OpStart implements Observer.
func (os Observers) OpStart(op OpInfo) {
	for _, o := range os {
		o.OpStart(op)
	}
}

// OpView implements Observer.
func (os Observers) OpView(op OpInfo, v OpView) {
	for _, o := range os {
		o.OpView(op, v)
	}
}

// OpEnd implements Observer.
func (os Observers) OpEnd(op OpInfo, at time.Duration, err error) {
	for _, o := range os {
		o.OpEnd(op, at, err)
	}
}

// opInfoOf builds the observer identity of one invocation.
func opInfoOf(id OpID, label string, op Operation, levels core.Levels, start time.Duration) OpInfo {
	return OpInfo{ID: id, Client: label, Name: op.OpName(), Key: op.OpKey(), Mutating: op.OpMutates(),
		Levels: levels, Start: start}
}
