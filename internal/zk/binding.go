package zk

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// itemOf converts a protocol-level QueueView into the store-agnostic typed
// queue result. Divergence (for speculation and confirmation) is judged on
// the element identity only — see binding.Item.EqualValue.
func itemOf(v QueueView) binding.Item {
	it := binding.Item{Remaining: v.Remaining}
	if v.Element != nil {
		it.ID = v.Element.Name
		it.Data = v.Element.Data
		it.Exists = true
	}
	return it
}

// Binding adapts a QueueClient to the Correctables binding API. It offers
// weak (local simulation on the contact server) and strong (committed
// through the ordered protocol) levels for enqueue and dequeue; view values
// are binding.Item and carry zxids as version tokens.
type Binding struct {
	qc *QueueClient
}

var _ binding.Binding = (*Binding)(nil)

// NewBinding wraps a queue client.
func NewBinding(qc *QueueClient) *Binding { return &Binding{qc: qc} }

// QueueClient returns the underlying queue client.
func (b *Binding) QueueClient() *QueueClient { return b.qc }

// ConsistencyLevels implements binding.Binding. Vanilla ZooKeeper offers a
// single, strong level (§5.2); the weak level (local simulation) exists
// only with the CZK server-side support.
func (b *Binding) ConsistencyLevels() core.Levels {
	if b.qc.Ensemble().Config().Correctable {
		return core.Levels{core.LevelWeak, core.LevelStrong}
	}
	return core.Levels{core.LevelStrong}
}

// SubmitOperation implements binding.Binding. The operation is a record
// (opRecord) whose first step takes the ready slot a spawned actor would
// (Clock.Run); the local simulation runs exactly when the weak level was
// asked for, and emit decides what each view goes out as. The client library
// bounds each invocation with the binding's DefaultOpTimeout (model time);
// the protocol below has no deadline of its own, and a late completion's
// views are refused by the closed Correctable.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	clock := b.qc.Ensemble().Transport().Clock()
	wantWeak := levels.Contains(core.LevelWeak)
	wantStrong := levels.Contains(core.LevelStrong)
	if !wantWeak && !wantStrong {
		// Asynchronous error delivery needs no actor: run the callback at
		// the current instant on the dispatcher.
		clock.RunAfter(0, func() { cb(binding.Result{Err: fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, levels)}) })
		return
	}
	r := b.qc.record()
	switch o := op.(type) {
	case binding.Enqueue:
		r.enqueue(o.Queue, o.Item, wantWeak)
	case binding.Dequeue:
		r.dequeue(o.Queue, wantWeak)
	default:
		r.e.putRecord(r)
		clock.Run(func() {
			cb(binding.Result{Err: fmt.Errorf("%w: zk queues have no %q", binding.ErrUnsupportedOperation, op.OpName())})
		})
		return
	}
	r.cb, r.onView, r.wantWeak, r.wantStrong = cb, r.view, wantWeak, wantStrong
	clock.Run(r.step)
}

// emit is the binding's view sink.
func (r *opRecord) emit(v QueueView) {
	level := v.Level
	switch {
	case r.wantWeak && r.wantStrong:
		// Preliminary and final, each at the level it carries.
	case r.wantStrong:
		level = core.LevelStrong
	default:
		// InvokeWeak semantics (§4.3): answer from the local simulation
		// immediately; the operation itself completes in the background and
		// its final (committed) view is dropped.
		if r.answered {
			return
		}
		r.answered = true
		level = core.LevelWeak
	}
	r.cb(binding.Result{Value: itemOf(v), Level: level, Version: v.Zxid})
}

// Scheduler implements binding.Binding: Correctables over this binding run
// on the ensemble's simulation clock.
func (b *Binding) Scheduler() core.Scheduler {
	return binding.SchedulerFor(b.qc.Ensemble().Transport().Clock())
}

// DefaultOpTimeout implements binding.TimeoutProvider: under fault
// injection each invocation is bounded by the ensemble's OpTimeout of
// model time.
func (b *Binding) DefaultOpTimeout() time.Duration {
	e := b.qc.Ensemble()
	if e.Transport().Interceptor() == nil {
		return 0
	}
	return e.Config().OpTimeout
}

// Queue is the typed application-facing facade over a zk queue binding:
// Correctable queue operations without a single interface{} in sight.
type Queue struct {
	client *binding.Client
}

// NewQueue builds the typed facade (wrapping the binding in a Client
// configured with opts — observers, operation timeout, label).
func NewQueue(b *Binding, opts ...binding.Option) *Queue {
	return &Queue{client: binding.NewClient(b, opts...)}
}

// Dequeue removes the queue head with incremental consistency guarantees.
func (q *Queue) Dequeue(ctx context.Context, queue string, levels ...core.Level) *core.Correctable[binding.Item] {
	return binding.Invoke[binding.Item](ctx, q.client, binding.Dequeue{Queue: queue}, levels...)
}

// DequeueStrong waits for the committed (atomic) dequeue only.
func (q *Queue) DequeueStrong(ctx context.Context, queue string) *core.Correctable[binding.Item] {
	return binding.InvokeStrong[binding.Item](ctx, q.client, binding.Dequeue{Queue: queue})
}
