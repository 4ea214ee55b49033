package binding

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// Coordinator batching: many sessions share one binding, and operations
// bound for the same shard within a dispatch window coalesce into a single
// coordinated round. The Batcher is the client-side half — a Binding
// wrapper that queues batchable operations per shard and arms one
// netsim.Coalescer timer per shard per window (amortized timer arming) —
// and BatchBinding is the store-side half: a binding whose coordinator path
// can serve several same-shard operations in one protocol round.

// BatchEntry is one enqueued operation awaiting a coalesced dispatch.
type BatchEntry struct {
	Ctx    context.Context
	Op     Operation
	Levels core.Levels
	Cb     Callback
}

// BatchBinding is the optional interface a Binding implements to accept
// coalesced same-shard dispatches.
type BatchBinding interface {
	Binding
	// BatchShards returns the number of dispatch queues (the shard count).
	BatchShards() int
	// BatchKey maps an operation to its dispatch queue. ok=false marks the
	// operation unbatchable: the Batcher submits it directly instead.
	BatchKey(op Operation) (shard int, ok bool)
	// SubmitBatch serves the entries — all mapped to shard by BatchKey —
	// in one coordinated round, delivering each entry's views through its
	// own callback. It runs in timer-callback context and must not block
	// (spawn an actor). done(entries) must be called once the entries
	// slice may be recycled.
	SubmitBatch(shard int, entries []BatchEntry, done func([]BatchEntry))
}

// Batcher wraps a BatchBinding with per-shard dispatch queues. It is
// itself a Binding: sessions and clients stack on top unchanged, and the
// provider interfaces (scheduler, versions, default timeout) forward to
// the wrapped binding.
//
// The enqueue path is allocation-free at steady state: entries append into
// recycled per-shard slices (a freelist refilled by done), the coalescer's
// per-shard fire closures are pre-bound at construction, and the
// scheduler's RunAfter is itself zero-alloc — see the batched-dispatch
// allocation gate.
type Batcher struct {
	b       BatchBinding
	clock   netsim.Clock
	co      *netsim.Coalescer
	recycle func([]BatchEntry) // pre-bound; handed to SubmitBatch as done

	mu      sync.Mutex
	pending [][]BatchEntry // per shard
	free    [][]BatchEntry // recycled entry slices

	batched    atomic.Int64 // operations that rode a coalesced dispatch
	dispatches atomic.Int64 // flushes handed to the store
}

var _ Binding = (*Batcher)(nil)

// NewBatcher wraps b, coalescing batchable operations per shard over the
// given dispatch window of model time.
func NewBatcher(b BatchBinding, clock netsim.Clock, window time.Duration) *Batcher {
	bt := &Batcher{
		b:       b,
		clock:   clock,
		pending: make([][]BatchEntry, b.BatchShards()),
	}
	bt.recycle = bt.doRecycle
	bt.co = netsim.NewCoalescer(clock, window, len(bt.pending), bt.flush)
	return bt
}

// ConsistencyLevels implements Binding.
func (bt *Batcher) ConsistencyLevels() core.Levels { return bt.b.ConsistencyLevels() }

// Close implements Binding.
func (bt *Batcher) Close() error { return bt.b.Close() }

// SubmitOperation implements Binding: batchable operations queue for the
// shard's next dispatch tick; everything else passes straight through.
func (bt *Batcher) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	shard, ok := bt.b.BatchKey(op)
	if !ok {
		bt.b.SubmitOperation(ctx, op, levels, cb)
		return
	}
	bt.mu.Lock()
	bt.pending[shard] = append(bt.pending[shard], BatchEntry{Ctx: ctx, Op: op, Levels: levels, Cb: cb})
	bt.mu.Unlock()
	bt.co.Touch(shard)
}

// flush hands a shard's queue to the store in one dispatch (timer-callback
// context). The queue slice is swapped against the freelist so the next
// window appends into warm capacity.
func (bt *Batcher) flush(shard int) {
	bt.mu.Lock()
	entries := bt.pending[shard]
	if len(entries) == 0 {
		bt.mu.Unlock()
		return
	}
	if n := len(bt.free); n > 0 {
		bt.pending[shard] = bt.free[n-1]
		bt.free = bt.free[:n-1]
	} else {
		bt.pending[shard] = nil
	}
	bt.mu.Unlock()
	bt.batched.Add(int64(len(entries)))
	bt.dispatches.Add(1)
	bt.b.SubmitBatch(shard, entries, bt.recycle)
}

// Stats reports how many operations rode coalesced dispatches and how many
// dispatches carried them; ops/dispatches is the mean batch size.
func (bt *Batcher) Stats() (ops, dispatches int64) {
	return bt.batched.Load(), bt.dispatches.Load()
}

// doRecycle returns a served entries slice to the freelist, dropping the
// payload references it held.
func (bt *Batcher) doRecycle(entries []BatchEntry) {
	for i := range entries {
		entries[i] = BatchEntry{}
	}
	bt.mu.Lock()
	bt.free = append(bt.free, entries[:0])
	bt.mu.Unlock()
}

// Scheduler implements SchedulerProvider, forwarding to the wrapped
// binding when it provides one and falling back to the dispatch clock.
func (bt *Batcher) Scheduler() core.Scheduler {
	if sp, ok := bt.b.(SchedulerProvider); ok {
		return sp.Scheduler()
	}
	return SchedulerFor(bt.clock)
}

// DefaultOpTimeout implements TimeoutProvider by forwarding.
func (bt *Batcher) DefaultOpTimeout() time.Duration {
	if tp, ok := bt.b.(TimeoutProvider); ok {
		return tp.DefaultOpTimeout()
	}
	return 0
}
