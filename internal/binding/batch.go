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
// dispatch timer per shard per window (amortized timer arming) —
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
// itself a Binding: sessions and clients stack on top unchanged. Its
// scheduler is the clock it dispatches on, and the default timeout
// forwards to the wrapped binding.
//
// The enqueue path is allocation-free at steady state: entries append into
// recycled per-shard slices (a freelist refilled by done), the per-shard
// fire closures are pre-bound at construction, and the
// scheduler's RunAfter is itself zero-alloc — see the batched-dispatch
// allocation gate.
type Batcher struct {
	b       BatchBinding
	clock   netsim.Clock
	window  time.Duration
	fire    []func()           // per shard, pre-bound: flush(shard)
	recycle func([]BatchEntry) // pre-bound; handed to SubmitBatch as done

	mu      sync.Mutex
	pending [][]BatchEntry // per shard
	armed   []bool         // per shard: a flush timer is pending
	free    [][]BatchEntry // recycled entry slices

	batched    atomic.Int64 // operations that rode a coalesced dispatch
	dispatches atomic.Int64 // flushes handed to the store
}

var _ Binding = (*Batcher)(nil)

// NewBatcher wraps b, coalescing batchable operations per shard over the
// given dispatch window of model time. A zero window still coalesces:
// everything submitted at one model instant flushes together at that same
// instant, as soon as the scheduler reaches its timer queue.
func NewBatcher(b BatchBinding, clock netsim.Clock, window time.Duration) *Batcher {
	shards := b.BatchShards()
	bt := &Batcher{
		b:       b,
		clock:   clock,
		window:  window,
		fire:    make([]func(), shards),
		pending: make([][]BatchEntry, shards),
		armed:   make([]bool, shards),
	}
	for shard := range bt.fire {
		bt.fire[shard] = func() { bt.flush(shard) }
	}
	bt.recycle = bt.doRecycle
	return bt
}

// ConsistencyLevels implements Binding.
func (bt *Batcher) ConsistencyLevels() core.Levels { return bt.b.ConsistencyLevels() }

// SubmitOperation implements Binding: batchable operations queue for the
// shard's next dispatch tick; everything else passes straight through. The
// first operation in a window arms the shard's flush timer; later ones
// ride the pending flush for free.
func (bt *Batcher) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	shard, ok := bt.b.BatchKey(op)
	if !ok {
		bt.b.SubmitOperation(ctx, op, levels, cb)
		return
	}
	bt.mu.Lock()
	bt.pending[shard] = append(bt.pending[shard], BatchEntry{Ctx: ctx, Op: op, Levels: levels, Cb: cb})
	arm := !bt.armed[shard]
	bt.armed[shard] = true
	bt.mu.Unlock()
	if arm {
		bt.clock.RunAfter(bt.window, bt.fire[shard])
	}
}

// flush hands a shard's queue to the store in one dispatch (timer-callback
// context). It disarms first, so an operation submitted from inside
// SubmitBatch opens a fresh window. The queue slice is swapped against the
// freelist so the next window appends into warm capacity.
func (bt *Batcher) flush(shard int) {
	bt.mu.Lock()
	bt.armed[shard] = false
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

// Scheduler implements Binding: the clock the Batcher dispatches on.
func (bt *Batcher) Scheduler() core.Scheduler { return SchedulerFor(bt.clock) }

// DefaultOpTimeout implements TimeoutProvider by forwarding.
func (bt *Batcher) DefaultOpTimeout() time.Duration {
	if tp, ok := bt.b.(TimeoutProvider); ok {
		return tp.DefaultOpTimeout()
	}
	return 0
}
