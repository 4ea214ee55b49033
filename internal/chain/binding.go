package chain

import (
	"context"
	"fmt"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// SubmitTx is the binding operation for submitting a transaction and
// tracking it to finality.
type SubmitTx struct {
	ID   string
	Data []byte
}

// OpName implements binding.Operation.
func (SubmitTx) OpName() string { return "submitTx" }

// OpKey implements binding.Operation: the transaction is the tracked object.
func (t SubmitTx) OpKey() string { return t.ID }

// OpMutates implements binding.Operation.
func (SubmitTx) OpMutates() bool { return true }

// ResultOf implements binding.OperationFor[TxStatus].
func (SubmitTx) ResultOf(v any) (TxStatus, error) {
	st, ok := v.(TxStatus)
	if !ok {
		return TxStatus{}, fmt.Errorf("chain: submitTx result is %T, want TxStatus", v)
	}
	return st, nil
}

// Submit is the typed facade over a chain binding's client: it submits tx
// and returns a Correctable tracking it through confirmations — one weak
// view per deepening, a strong view at the binding's finality depth.
func Submit(ctx context.Context, c *binding.Client, tx SubmitTx, levels ...core.Level) *core.Correctable[TxStatus] {
	return binding.Invoke[TxStatus](ctx, c, tx, levels...)
}

// Binding adapts a Chain to the Correctables binding API. A SubmitTx
// operation yields one weak view per confirmation — inclusion in a block,
// then each deepening — and closes with a strong view once the transaction
// is Depth blocks deep (irrevocable with high probability). This is the
// "arbitrarily many views" case of §4.5: the interface is unchanged, only
// the number of updates grows. Views carry the including block's height as
// the per-transaction version token.
//
// The chain binding deliberately implements no DefaultOpTimeout:
// confirmations take arbitrarily long by nature (§4.5), so a stalled final
// view during miner downtime is the honest answer. Clients that must not
// wait out an unbounded outage bound their invocations with
// binding.WithOpTimeout, which fails them with faults.ErrUnreachable
// instead.
type Binding struct {
	chain *Chain
	depth int
}

var _ binding.Binding = (*Binding)(nil)

// NewBinding wraps a chain; depth is the confirmation count considered
// final (Bitcoin folklore uses 6).
func NewBinding(chain *Chain, depth int) *Binding {
	if depth < 1 {
		depth = 1
	}
	return &Binding{chain: chain, depth: depth}
}

// ConsistencyLevels implements binding.Binding.
func (b *Binding) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}

// Close implements binding.Binding.
func (b *Binding) Close() error { return nil }

// ErrChainStopped fails a tracked transaction when the chain halts before
// the transaction reached the requested depth.
var ErrChainStopped = fmt.Errorf("chain: stopped before the transaction was confirmed")

// cancelSentinel marks a context cancellation in a watcher queue.
var cancelSentinel = Block{Height: -2}

// Scheduler implements binding.SchedulerProvider: Correctables over this
// binding block through the chain's simulation clock.
func (b *Binding) Scheduler() core.Scheduler {
	return binding.SchedulerFor(b.chain.clock)
}

// SubmitOperation implements binding.Binding.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	clock := b.chain.clock
	tx, ok := op.(SubmitTx)
	if !ok {
		// Asynchronous error delivery needs no actor: run the callback at
		// the current instant on the dispatcher.
		clock.RunAfter(0, func() {
			cb(binding.Result{Err: fmt.Errorf("%w: chain has no %q", binding.ErrUnsupportedOperation, op.OpName())})
		})
		return
	}
	wantWeak := levels.Contains(core.LevelWeak)
	blocks, cancel := b.chain.Watch()
	b.chain.Submit(Tx{ID: tx.ID, Data: tx.Data})
	// Cancellable contexts are driven by host time, which the simulation
	// clock knows nothing about: bridge them with a sentinel fed from a
	// plain goroutine. Simulation workloads pass context.Background() and
	// never take this path.
	finished := make(chan struct{})
	if ctxDone := ctx.Done(); ctxDone != nil {
		go func() {
			select {
			case <-ctxDone:
				blocks.Put(cancelSentinel)
			case <-finished:
			}
		}()
	}
	clock.Go(func() {
		defer cancel()
		defer close(finished)
		includedAt := 0
		for {
			blk := blocks.Get().(Block)
			if blk.Height == cancelSentinel.Height {
				cb(binding.Result{Err: ctx.Err()})
				return
			}
			if blk.Height < 0 {
				cb(binding.Result{Err: ErrChainStopped})
				return
			}
			if includedAt == 0 {
				for _, id := range blk.TxIDs {
					if id == tx.ID {
						includedAt = blk.Height
						break
					}
				}
				if includedAt == 0 {
					continue
				}
			}
			conf := blk.Height - includedAt + 1
			status := TxStatus{TxID: tx.ID, Confirmations: conf, BlockHeight: includedAt}
			if conf >= b.depth {
				cb(binding.Result{Value: status, Level: core.LevelStrong, Version: uint64(includedAt)})
				return
			}
			if wantWeak {
				cb(binding.Result{Value: status, Level: core.LevelWeak, Version: uint64(includedAt)})
			}
		}
	})
}
