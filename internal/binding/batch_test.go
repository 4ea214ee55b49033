package binding

import (
	"context"
	"testing"
	"time"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// recordingBatchBinding records every dispatch it receives so tests can
// assert on grouping, ordering and the direct-submit fallback.
type recordingBatchBinding struct {
	*syncBinding
	shards  int
	batches []struct {
		shard int
		keys  []string
	}
	direct []string
	// onBatch, if set, runs after each dispatch has been served.
	onBatch func()
}

func newRecordingBatchBinding(shards int) *recordingBatchBinding {
	return &recordingBatchBinding{syncBinding: newSyncBinding(), shards: shards}
}

func (b *recordingBatchBinding) SubmitOperation(ctx context.Context, op Operation, levels core.Levels, cb Callback) {
	b.direct = append(b.direct, op.OpName())
	b.syncBinding.SubmitOperation(ctx, op, levels, cb)
}

func (b *recordingBatchBinding) BatchShards() int { return b.shards }

// BatchKey batches gets only, sharded by the last key byte.
func (b *recordingBatchBinding) BatchKey(op Operation) (int, bool) {
	g, ok := op.(Get)
	if !ok || g.Key == "" {
		return 0, false
	}
	return int(g.Key[len(g.Key)-1]) % b.shards, true
}

func (b *recordingBatchBinding) SubmitBatch(shard int, entries []BatchEntry, done func([]BatchEntry)) {
	rec := struct {
		shard int
		keys  []string
	}{shard: shard}
	for i := range entries {
		e := &entries[i]
		rec.keys = append(rec.keys, e.Op.(Get).Key)
		for _, l := range e.Levels {
			e.Cb(Result{Value: b.value, Level: l})
		}
	}
	b.batches = append(b.batches, rec)
	done(entries)
	if b.onBatch != nil {
		b.onBatch()
	}
}

// TestBatcherGroupsByShard: same-window operations coalesce into one
// dispatch per shard, FIFO within the shard, and a later window dispatches
// separately.
func TestBatcherGroupsByShard(t *testing.T) {
	clock := netsim.NewVirtualClock()
	bb := newRecordingBatchBinding(2)
	bt := NewBatcher(bb, clock, time.Millisecond)
	ctx := context.Background()
	cb := func(Result) {}
	levels := core.Levels{core.LevelWeak}

	// Key's last byte selects the shard: "0"→even, "1"→odd.
	for _, k := range []string{"a0", "b1", "c0", "d1", "e0"} {
		bt.SubmitOperation(ctx, Get{Key: k}, levels, cb)
	}
	clock.Drain()
	if len(bb.batches) != 2 {
		t.Fatalf("got %d dispatches, want 2 (one per shard): %+v", len(bb.batches), bb.batches)
	}
	want := map[int][]string{0: {"a0", "c0", "e0"}, 1: {"b1", "d1"}}
	for _, rec := range bb.batches {
		w := want[rec.shard]
		if len(rec.keys) != len(w) {
			t.Fatalf("shard %d got %v, want %v", rec.shard, rec.keys, w)
		}
		for i := range w {
			if rec.keys[i] != w[i] {
				t.Errorf("shard %d keys = %v, want %v (FIFO)", rec.shard, rec.keys, w)
				break
			}
		}
	}

	// A fresh window dispatches on its own.
	bt.SubmitOperation(ctx, Get{Key: "f0"}, levels, cb)
	clock.Drain()
	if len(bb.batches) != 3 || bb.batches[2].keys[0] != "f0" {
		t.Fatalf("post-window dispatch missing: %+v", bb.batches)
	}
}

// TestBatcherSingleFlushPerWindow: every operation submitted inside one
// window rides a single flush per shard, fired when the window closes; an
// operation after the flush opens a fresh window.
func TestBatcherSingleFlushPerWindow(t *testing.T) {
	clock := netsim.NewVirtualClock()
	bb := newRecordingBatchBinding(3)
	bt := NewBatcher(bb, clock, 5*time.Millisecond)
	ctx := context.Background()
	cb := func(Result) {}
	levels := core.Levels{core.LevelWeak}
	var at []time.Duration
	bb.onBatch = func() { at = append(at, clock.Now()) }

	// "1" and "2" land on shards 1 and 2 (byte % 3).
	for _, k := range []string{"a1", "b1", "c1", "d2"} {
		bt.SubmitOperation(ctx, Get{Key: k}, levels, cb)
	}
	clock.Drain()
	if len(bb.batches) != 2 {
		t.Fatalf("got %d flushes, want 2: %+v", len(bb.batches), bb.batches)
	}
	for i, rec := range bb.batches {
		if at[i] != 5*time.Millisecond {
			t.Errorf("shard %d flushed at %v, want 5ms", rec.shard, at[i])
		}
	}

	// Fresh window after dispatch.
	bt.SubmitOperation(ctx, Get{Key: "e1"}, levels, cb)
	clock.Drain()
	if len(bb.batches) != 3 {
		t.Fatalf("got %d flushes after re-arm, want 3", len(bb.batches))
	}
	if last := bb.batches[2]; last.shard != 1 || at[2] != 10*time.Millisecond {
		t.Errorf("re-armed flush = shard %d at %v, want shard 1 at 10ms", last.shard, at[2])
	}
}

// TestBatcherSubmitDuringFlush: an operation submitted from inside
// SubmitBatch opens a fresh window rather than being swallowed by the
// flush that is running.
func TestBatcherSubmitDuringFlush(t *testing.T) {
	clock := netsim.NewVirtualClock()
	bb := newRecordingBatchBinding(1)
	bt := NewBatcher(bb, clock, time.Millisecond)
	ctx := context.Background()
	cb := func(Result) {}
	levels := core.Levels{core.LevelWeak}
	bb.onBatch = func() {
		if len(bb.batches) == 1 {
			bt.SubmitOperation(ctx, Get{Key: "b0"}, levels, cb)
		}
	}
	bt.SubmitOperation(ctx, Get{Key: "a0"}, levels, cb)
	clock.Drain()
	if len(bb.batches) != 2 || bb.batches[1].keys[0] != "b0" {
		t.Fatalf("got dispatches %+v, want a0 then b0 in a window of its own", bb.batches)
	}
	if now := clock.Now(); now != 2*time.Millisecond {
		t.Errorf("second window flushed at %v, want 2ms", now)
	}
}

// TestBatcherZeroWindow: a zero window still coalesces same-instant
// operations into one dispatch, at that same instant.
func TestBatcherZeroWindow(t *testing.T) {
	clock := netsim.NewVirtualClock()
	bb := newRecordingBatchBinding(1)
	bt := NewBatcher(bb, clock, 0)
	for _, k := range []string{"a0", "b0", "c0"} {
		bt.SubmitOperation(context.Background(), Get{Key: k}, core.Levels{core.LevelWeak}, func(Result) {})
	}
	clock.Drain()
	if len(bb.batches) != 1 || len(bb.batches[0].keys) != 3 {
		t.Fatalf("zero-window dispatches = %+v, want one of three", bb.batches)
	}
	if now := clock.Now(); now != 0 {
		t.Errorf("zero-window flush at %v, want 0", now)
	}
}

// TestBatcherDirectFallback: operations BatchKey declines (puts, empty
// keys) bypass the queues entirely and reach the store synchronously.
func TestBatcherDirectFallback(t *testing.T) {
	clock := netsim.NewVirtualClock()
	bb := newRecordingBatchBinding(2)
	bt := NewBatcher(bb, clock, time.Millisecond)
	served := 0
	bt.SubmitOperation(context.Background(), Put{Key: "k", Value: []byte("v")},
		core.Levels{core.LevelStrong}, func(Result) { served++ })
	if len(bb.direct) != 1 || bb.direct[0] != "put" || served != 1 {
		t.Fatalf("direct = %v served = %d, want one synchronous put", bb.direct, served)
	}
	if len(bb.batches) != 0 {
		t.Fatalf("put must not be batched: %+v", bb.batches)
	}
}

// TestBatcherClientStack: a full typed client stacked on a Batcher
// delivers views exactly as over the raw binding — callers cannot tell
// batching is underneath. The client runs on the Batcher's dispatch clock,
// not on the wrapped binding's scheduler, and the timeout fallback holds
// for a wrapped binding that offers none.
func TestBatcherClientStack(t *testing.T) {
	clock := netsim.NewVirtualClock()
	bb := newRecordingBatchBinding(2)
	bt := NewBatcher(bb, clock, time.Millisecond)
	c := NewClient(bt)
	ctx := context.Background()

	done := make(chan error, 1)
	clock.Go(func() {
		cor := Invoke[[]byte](ctx, c, Get{Key: "k0"})
		_, err := cor.Final(ctx)
		done <- err
	})
	clock.Drain()
	if err := <-done; err != nil {
		t.Fatalf("batched invoke: %v", err)
	}
	if len(bb.batches) != 1 {
		t.Fatalf("client invoke did not route through a dispatch: %+v", bb.batches)
	}

	if d := bt.DefaultOpTimeout(); d != 0 {
		t.Errorf("DefaultOpTimeout fallback = %v, want 0", d)
	}
	clock.Sleep(time.Hour)
	if got, want := bt.Scheduler().Now(), clock.Now(); got != want {
		t.Errorf("Scheduler reads %v, want the dispatch clock's %v", got, want)
	}
}
