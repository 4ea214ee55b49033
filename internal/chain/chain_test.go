package chain

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// newTestChain starts a chain on a virtual clock whose root actor is the
// calling test; when the test ends the chain is stopped, which fails and
// drops every transaction's follower, and the clock drained.
func newTestChain(t *testing.T, interval time.Duration) *Chain {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), nil, 1)
	c, err := New(Config{Transport: tr, BlockInterval: interval, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Stop()
		clock.Drain()
	})
	return c
}

func TestChainValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing transport accepted")
	}
}

func TestChainMinesBlocks(t *testing.T) {
	c := newTestChain(t, 10*time.Millisecond)
	c.clock.Sleep(50 * time.Millisecond)
	if c.Height() < 3 {
		t.Fatalf("chain stuck at height %d after 5 block intervals", c.Height())
	}
}

func TestChainStopHaltsMining(t *testing.T) {
	c := newTestChain(t, 5*time.Millisecond)
	c.clock.Sleep(10 * time.Millisecond)
	c.Stop()
	h := c.Height()
	if h < 1 {
		t.Fatal("no block mined in two block intervals")
	}
	c.clock.Sleep(50 * time.Millisecond)
	if got := c.Height(); got != h {
		t.Errorf("height advanced from %d to %d after Stop", h, got)
	}
	c.Stop() // idempotent
}

func TestConfirmationsOf(t *testing.T) {
	c := newTestChain(t, 5*time.Millisecond)
	c.clock.Sleep(30 * time.Millisecond)
	h := c.Height()
	if h < 4 {
		t.Fatalf("chain at height %d after 6 block intervals", h)
	}
	if got := c.ConfirmationsOf(1); got < h-1 {
		t.Errorf("ConfirmationsOf(1) = %d at height %d", got, h)
	}
	if c.ConfirmationsOf(0) != 0 || c.ConfirmationsOf(h+100) != 0 {
		t.Error("out-of-range heights should report 0 confirmations")
	}
}

func TestBindingTracksConfirmations(t *testing.T) {
	c := newTestChain(t, 8*time.Millisecond)
	const depth = 4
	client := binding.NewClient(NewBinding(c, depth))
	cor := Submit(context.Background(), client, SubmitTx{ID: "tx-1", Data: []byte("pay")})
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	status := v.Value
	if status.Confirmations < depth {
		t.Errorf("final confirmations = %d, want >= %d", status.Confirmations, depth)
	}
	if v.Level != core.LevelStrong {
		t.Errorf("final level = %v", v.Level)
	}
	views := cor.Views()
	// depth views total: conf 1..depth-1 weak, then strong.
	if len(views) != depth {
		t.Fatalf("got %d views, want %d: %+v", len(views), depth, views)
	}
	for i, view := range views {
		st := view.Value
		if st.Confirmations != i+1 {
			t.Errorf("view %d confirmations = %d", i, st.Confirmations)
		}
		if st.BlockHeight != status.BlockHeight {
			t.Errorf("view %d block height = %d, want %d (no reorgs in this sim)", i, st.BlockHeight, status.BlockHeight)
		}
	}
}

func TestBindingStrongOnlySingleView(t *testing.T) {
	c := newTestChain(t, 5*time.Millisecond)
	client := binding.NewClient(NewBinding(c, 3))
	cor := binding.InvokeStrong[TxStatus](context.Background(), client, SubmitTx{ID: "tx-2"})
	if _, err := cor.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(cor.Views()) != 1 {
		t.Errorf("strong-only views = %d, want 1", len(cor.Views()))
	}
}

func TestBindingUnsupportedOp(t *testing.T) {
	c := newTestChain(t, time.Hour)
	client := binding.NewClient(NewBinding(c, 2))
	if _, err := binding.Invoke[[]byte](context.Background(), client, binding.Get{Key: "x"}).Final(context.Background()); err == nil {
		t.Error("Get on chain should fail")
	}
}

// TestTxStatusEquality goes through core.ValuesEqual, the dispatch
// Speculate uses: a deepening confirmation count is the same outcome, so a
// speculation over a chain Correctable runs once, not once per block.
func TestTxStatusEquality(t *testing.T) {
	a := TxStatus{TxID: "t", Confirmations: 1, BlockHeight: 5}
	b := TxStatus{TxID: "t", Confirmations: 3, BlockHeight: 5}
	if !core.ValuesEqual(a, b) {
		t.Error("same block, different depth should be equal outcome")
	}
	if core.ValuesEqual(a, TxStatus{TxID: "t", BlockHeight: 6}) {
		t.Error("different block should differ")
	}

	c := newTestChain(t, 5*time.Millisecond)
	client := binding.NewClient(NewBinding(c, 3))
	ctx := context.Background()
	runs := 0
	spec := core.Speculate(Submit(ctx, client, SubmitTx{ID: "tx-s"}),
		func(v core.View[TxStatus]) (int, error) {
			runs++
			return v.Value.BlockHeight, nil
		}, nil)
	v, err := spec.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || v.Value == 0 {
		t.Errorf("speculation ran %d times across three confirmations (block %d), want once", runs, v.Value)
	}
}

func TestManyTxsAllConfirm(t *testing.T) {
	c := newTestChain(t, 5*time.Millisecond)
	client := binding.NewClient(NewBinding(c, 2))
	ctx := context.Background()
	var cors []*core.Correctable[TxStatus]
	for i := 0; i < 10; i++ {
		cors = append(cors, Submit(ctx, client, SubmitTx{ID: fmt.Sprintf("tx-%d", i)}))
	}
	for i, cor := range cors {
		if _, err := cor.Final(ctx); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
}

// stopCounter is a chain binding that counts, per transaction, the results
// that fail it with ErrChainStopped.
type stopCounter struct {
	*Binding
	stopped map[string]int
}

func (b stopCounter) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	b.Binding.SubmitOperation(ctx, op, levels, func(r binding.Result) {
		if errors.Is(r.Err, ErrChainStopped) {
			b.stopped[op.OpKey()]++
		}
		cb(r)
	})
}

// failedStopped reports whether cor has already failed with ErrChainStopped.
// It never waits: a tracker the stop missed would wait for good.
func failedStopped(cor *core.Correctable[TxStatus]) bool {
	if cor.State() != core.StateError {
		return false
	}
	_, err := cor.Final(context.Background())
	return errors.Is(err, ErrChainStopped)
}

// TestStopFailsEveryTrackedTxOnce: Stop fails each transaction it finds
// still short of its depth with ErrChainStopped, exactly once; a submission
// after Stop fails at once; and no follower outlives the chain.
func TestStopFailsEveryTrackedTxOnce(t *testing.T) {
	c := newTestChain(t, 10*time.Millisecond)
	b := stopCounter{NewBinding(c, 50), map[string]int{}}
	client := binding.NewClient(b)
	ctx := context.Background()
	tracked := []*core.Correctable[TxStatus]{
		Submit(ctx, client, SubmitTx{ID: "tx-1"}),
		Submit(ctx, client, SubmitTx{ID: "tx-2"}),
	}
	for c.Height() < 3 {
		c.clock.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop()
	c.clock.Sleep(100 * time.Millisecond) // mining deadlines come and go
	for i, cor := range tracked {
		if !failedStopped(cor) {
			t.Errorf("tx-%d is %v after Stop, want failed with ErrChainStopped", i+1, cor.State())
		}
		if len(cor.Views()) == 0 {
			t.Errorf("tx-%d saw no confirmation in three blocks", i+1)
		}
	}

	late := Submit(ctx, client, SubmitTx{ID: "tx-late"})
	if !failedStopped(late) {
		t.Errorf("a submission after Stop is %v when Submit returns, want failed with ErrChainStopped", late.State())
	}
	c.clock.Drain()
	if want := map[string]int{"tx-1": 1, "tx-2": 1, "tx-late": 1}; !maps.Equal(b.stopped, want) {
		t.Errorf("ErrChainStopped results per transaction = %v, want %v", b.stopped, want)
	}
	if n := c.Followers(); n != 0 {
		t.Errorf("%d follower(s) left after Drain", n)
	}
}

// TestStopFromAViewFailsTheOthers: a view callback that stops the chain,
// mid-block, leaves no transaction tracked: the ones that follow it get the
// block, then ErrChainStopped, once each.
func TestStopFromAViewFailsTheOthers(t *testing.T) {
	c := newTestChain(t, 10*time.Millisecond)
	b := stopCounter{NewBinding(c, 50), map[string]int{}}
	client := binding.NewClient(b)
	ctx := context.Background()
	first := Submit(ctx, client, SubmitTx{ID: "tx-1"})
	first.OnUpdate(func(core.View[TxStatus]) { c.Stop() })
	second := Submit(ctx, client, SubmitTx{ID: "tx-2"})
	for c.Height() < 1 {
		c.clock.Sleep(time.Millisecond)
	}
	for i, cor := range []*core.Correctable[TxStatus]{first, second} {
		if !failedStopped(cor) {
			t.Errorf("tx-%d is %v after the stop, want failed with ErrChainStopped", i+1, cor.State())
		}
		if n := len(cor.Views()); n != 1 {
			t.Errorf("tx-%d: %d views before the stop, want the block the stop came in", i+1, n)
		}
	}
	if want := map[string]int{"tx-1": 1, "tx-2": 1}; !maps.Equal(b.stopped, want) {
		t.Errorf("ErrChainStopped results per transaction = %v, want %v", b.stopped, want)
	}
	if n := c.Followers(); n != 0 {
		t.Errorf("%d follower(s) left after the stop", n)
	}
}
