package binding

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"correctables/internal/core"
)

// ErrSessionGuarantee fails a session invocation whose final view could not
// be brought up to the session's floor: the binding kept returning state
// older than what this session has already read or written, even after
// sessionRetries re-executions. Check with errors.Is.
var ErrSessionGuarantee = errors.New("binding: session guarantee violated")

// sessionRetries is how often a stale final read is re-executed before the
// session gives up (each retry re-runs the full operation, so replication
// normally catches up on the first one).
const sessionRetries = 3

// Session threads cross-operation consistency guarantees — read-your-writes
// and monotonic reads, the classic session guarantees — over a Client, using
// the version tokens its binding stamps on every view (Result.Version). The
// paper's Client is a one-shot invoke surface; real applications issue
// sequences of operations and care about what later operations may observe
// relative to earlier ones. A Session tracks, per replicated object, the
// highest version token this session has written and read (its "floor"),
// and the invoke pipeline enforces:
//
//   - a weaker (non-final) view older than the floor is suppressed — the
//     application simply never sees the stale preliminary;
//   - a final read view older than the floor is retried (the operation is
//     re-executed at the strongest requested level only, so already-
//     delivered weaker views are not duplicated; replication catches up),
//     failing with ErrSessionGuarantee after sessionRetries retries;
//   - every delivered view advances the read floor, and the final view of
//     a mutating operation advances the write floor.
//
// Together these give read-your-writes and monotonic reads per object for
// all operations issued through the session, at every consistency level —
// including preliminary views, which is exactly what a bare Correctable
// cannot promise (§3.2's levels are per-operation, not cross-operation).
//
// Operations that carry no object identity (OpKey "") pass through
// unfiltered, and so does every view of a binding whose tokens are all 0:
// its floors stay at 0. A Session is intended for one logical actor issuing
// operations sequentially; concurrent use is safe but the floor then
// interleaves across the concurrent operations.
type Session struct {
	c *Client

	mu        sync.Mutex
	lastWrite map[string]uint64
	lastRead  map[string]uint64
}

// NewSession opens a session over c. Sessions are cheap; open one per
// logical actor (user, request chain) whose operations need cross-operation
// guarantees.
func NewSession(c *Client) *Session {
	return &Session{
		c:         c,
		lastWrite: map[string]uint64{},
		lastRead:  map[string]uint64{},
	}
}

// Floor returns the minimum version token a view of key may carry without
// violating this session's guarantees: the highest token the session has
// written or read for key.
func (s *Session) Floor(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(s.lastWrite[key], s.lastRead[key])
}

// observe advances the session's floors after a delivered view.
func (s *Session) observe(key string, version uint64, wrote bool) {
	s.mu.Lock()
	if version > s.lastRead[key] {
		s.lastRead[key] = version
	}
	if wrote && version > s.lastWrite[key] {
		s.lastWrite[key] = version
	}
	s.mu.Unlock()
}

// sessionVerdict is the pipeline's decision about one incoming view.
type sessionVerdict uint8

const (
	sessionDeliver  sessionVerdict = iota // deliver the view normally
	sessionSuppress                       // drop a stale weaker view silently
	sessionRetry                          // re-execute the operation
	sessionFail                           // fail with ErrSessionGuarantee
)

// sessionCall is the per-invocation session state: the floor frozen at
// submission (guarantees are relative to operations that completed before
// this one began) and the retry budget. Callbacks for one operation are
// delivered sequentially, so retries need no locking.
type sessionCall struct {
	s        *Session
	key      string
	mutating bool
	floor    uint64
	retries  int
}

// newCall prepares the session state for one invocation; nil when the
// session is nil (plain invoke) or the operation carries no object identity.
func (s *Session) newCall(op Operation) *sessionCall {
	if s == nil {
		return nil
	}
	key := op.OpKey()
	if key == "" {
		return nil
	}
	return &sessionCall{s: s, key: key, mutating: op.OpMutates(), floor: s.Floor(key), retries: sessionRetries}
}

// check classifies one incoming view against the call's floor. Mutating
// finals always pass: the store ordered them itself, and re-executing a
// mutation to chase a token would duplicate its side effects.
func (call *sessionCall) check(final bool, version uint64) sessionVerdict {
	if version >= call.floor {
		return sessionDeliver
	}
	if !final {
		return sessionSuppress
	}
	if call.mutating {
		return sessionDeliver
	}
	if call.retries > 0 {
		call.retries--
		return sessionRetry
	}
	return sessionFail
}

// floorErr builds the terminal staleness error.
func (call *sessionCall) floorErr(version uint64) error {
	return fmt.Errorf("%w: final view of %q at version %d, session floor %d (retries exhausted)",
		ErrSessionGuarantee, call.key, version, call.floor)
}

// observe forwards a delivered view's token to the session.
func (call *sessionCall) observe(version uint64, final bool) {
	call.s.observe(call.key, version, final && call.mutating)
}

// SessionInvoke executes op through s with incremental consistency
// guarantees (one view per requested level, all offered levels when none
// are given) plus the session's cross-operation guarantees: delivered views
// never regress below versions this session has already read or written.
func SessionInvoke[T any](ctx context.Context, s *Session, op OperationFor[T], levels ...core.Level) *core.Correctable[T] {
	requested, err := s.c.requestedLevels(levels)
	if err != nil {
		return core.Failed[T](err)
	}
	return submit(ctx, s.c, op, requested, s)
}

// SessionInvokeWeak executes op at the weakest offered level (single view)
// with session guarantees: a weak read that would violate read-your-writes
// or monotonic reads is re-executed until replication catches up.
func SessionInvokeWeak[T any](ctx context.Context, s *Session, op OperationFor[T]) *core.Correctable[T] {
	if len(s.c.levels) == 0 {
		return core.Failed[T](fmt.Errorf("%w: binding advertises no levels", ErrUnsupportedLevel))
	}
	return submit(ctx, s.c, op, s.c.weakSet, s)
}

// SessionInvokeStrong executes op at the strongest offered level (single
// view) with session guarantees.
func SessionInvokeStrong[T any](ctx context.Context, s *Session, op OperationFor[T]) *core.Correctable[T] {
	if len(s.c.levels) == 0 {
		return core.Failed[T](fmt.Errorf("%w: binding advertises no levels", ErrUnsupportedLevel))
	}
	return submit(ctx, s.c, op, s.c.strongSet, s)
}

// Get reads key through the session with incremental consistency
// guarantees (convenience over SessionInvoke for key-value stores).
func (s *Session) Get(ctx context.Context, key string, levels ...core.Level) *core.Correctable[[]byte] {
	return SessionInvoke[[]byte](ctx, s, Get{Key: key}, levels...)
}

// GetWeak reads key at the weakest offered level with session guarantees.
func (s *Session) GetWeak(ctx context.Context, key string) *core.Correctable[[]byte] {
	return SessionInvokeWeak[[]byte](ctx, s, Get{Key: key})
}

// Put writes key through the session; the acknowledged version raises the
// session's write floor, so later session reads observe it.
func (s *Session) Put(ctx context.Context, key string, value []byte) *core.Correctable[Ack] {
	return SessionInvokeStrong[Ack](ctx, s, Put{Key: key, Value: value})
}

// Enqueue appends to a queue object through the session.
func (s *Session) Enqueue(ctx context.Context, queue string, item []byte, levels ...core.Level) *core.Correctable[Item] {
	return SessionInvoke[Item](ctx, s, Enqueue{Queue: queue, Item: item}, levels...)
}

// Dequeue removes a queue head through the session.
func (s *Session) Dequeue(ctx context.Context, queue string, levels ...core.Level) *core.Correctable[Item] {
	return SessionInvoke[Item](ctx, s, Dequeue{Queue: queue}, levels...)
}
