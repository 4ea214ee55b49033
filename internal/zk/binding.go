package zk

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
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

	// free recycles the records of finished operations.
	free netsim.FreeList[opRecord]
}

// opRecord is the state of one SubmitOperation for the life of its protocol
// actor, in place of a closure per hop (the idiom of cassandra.Binding's
// record): the actor body and the view sink are methods bound once, when the
// record is built. The actor returns the record as its last act — after the
// queue client has delivered or given up on every view — and nothing else
// does: an invocation the client library timed out keeps its record until
// its actor ends.
type opRecord struct {
	b  *Binding
	op binding.Operation
	cb binding.Callback
	// The requested levels, and for a weak-only request whether its one view
	// has gone out.
	wantWeak, wantStrong, delivered bool

	run  func()          // r.exec: the actor body
	view func(QueueView) // r.emit: the queue client's view sink
}

func (b *Binding) getRecord() *opRecord {
	r := b.free.Take()
	if r == nil {
		r = &opRecord{b: b}
		r.run, r.view = r.exec, r.emit
	}
	return r
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

// SubmitOperation implements binding.Binding. The client library bounds
// each invocation with the binding's DefaultOpTimeout (model time); the
// protocol below has no deadline of its own, and a late completion's views
// are refused by the closed Correctable.
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
	r := b.getRecord()
	r.op, r.cb, r.wantWeak, r.wantStrong = op, cb, wantWeak, wantStrong
	clock.Go(r.run)
}

// putRecord recycles r, cleared of the operation's references.
func (b *Binding) putRecord(r *opRecord) {
	r.op, r.cb, r.delivered = nil, nil, false
	b.free.Put(r)
}

// exec is the operation's protocol actor. The local simulation runs exactly
// when the weak level was asked for; emit decides what each view goes out
// as.
func (r *opRecord) exec() {
	var err error
	switch o := r.op.(type) {
	case binding.Enqueue:
		err = r.b.qc.Enqueue(o.Queue, o.Item, r.wantWeak, r.view)
	case binding.Dequeue:
		err = r.b.qc.Dequeue(o.Queue, r.wantWeak, r.view)
	default:
		err = fmt.Errorf("%w: zk queues have no %q", binding.ErrUnsupportedOperation, r.op.OpName())
	}
	// A weak-only request that got its view is answered: what became of the
	// commit behind it is not its business.
	if err != nil && !r.delivered {
		r.cb(binding.Result{Err: err})
	}
	r.b.putRecord(r)
}

// emit is the record's view sink.
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
		if r.delivered {
			return
		}
		r.delivered = true
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
