package chain

import (
	"context"
	"fmt"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// newTestChain starts a chain on a virtual clock whose root actor is the
// calling test; when the test ends the chain is stopped and the clock
// drained, which releases every transaction tracker.
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
