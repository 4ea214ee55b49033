package binding

import (
	"context"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// syncBinding answers synchronously from a pre-boxed value, isolating the
// client library's own allocations: everything the allocation gates observe
// is invoke-path overhead, not storage work. It is also the base storage
// stub for the batching tests (untagged file: the race suite needs it too).
type syncBinding struct {
	levels core.Levels
	value  any // pre-boxed []byte, so wire boxing is not attributed to either path
}

func (s *syncBinding) ConsistencyLevels() core.Levels { return s.levels }

func (s *syncBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	for _, l := range levels {
		cb(Result{Value: s.value, Level: l})
	}
}

func (s *syncBinding) Close() error { return nil }

func newSyncBinding() *syncBinding {
	return &syncBinding{
		levels: core.Levels{core.LevelWeak, core.LevelStrong},
		value:  []byte("payload"),
	}
}

// clocked gives a test binding the scheduler of a netsim clock, the way the
// shipped bindings provide their substrate's (SchedulerProvider).
type clocked struct {
	Binding
	clock netsim.Clock
}

func (b clocked) Scheduler() core.Scheduler { return SchedulerFor(b.clock) }

// batchStub is a BatchBinding that serves every coalesced entry
// synchronously from the pre-boxed value, so the allocations the
// batched-dispatch gate observes belong to the Batcher's
// enqueue/flush/recycle machinery alone.
type batchStub struct {
	*syncBinding
}

func (b *batchStub) BatchShards() int { return 1 }

func (b *batchStub) BatchKey(op Operation) (int, bool) {
	_, ok := op.(Get)
	return 0, ok
}

func (b *batchStub) SubmitBatch(shard int, entries []BatchEntry, done func([]BatchEntry)) {
	for i := range entries {
		e := &entries[i]
		for _, l := range e.Levels {
			e.Cb(Result{Value: b.value, Level: l})
		}
	}
	done(entries)
}
