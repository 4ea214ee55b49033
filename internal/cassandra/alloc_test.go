//go:build !race

package cassandra

import (
	"context"
	"testing"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// TestAllocGateQuorumRead pins what one read through the Binding costs end
// to end — client library, binding, the operation's record (no actor), one
// peer leg (a round trip on the gather's record: no actor either), views —
// on a warm virtual clock (event, record and gather free lists populated).
// The budgets are absolute, and what is left is what the caller keeps: the
// operation runs on its recycled record and gather, whose steps and whose
// preliminary flush callback were bound when they were built, and its views
// alias the replica's bytes and go out on the binding wire in the box the
// store made when the bytes came in (Versioned), so no view allocates.
//
//   - strong-only R=2 read, 3 (4 while every view boxed its value, 8 before
//     the records and the shared values, 20 before the pooled scheduler):
//     the boxed operation, the Correctable and the library's result
//     callback;
//   - correctable R=2 read, 3 (5 while every view boxed its value, 6 while
//     the flush callback was a closure per read, 11 and 27 before): the
//     same — the preliminary view costs nothing either.
//
// Counts of actors repeat exactly: an R=2 read and a W=2 write start none
// (one before the operation became a record, two before the peer leg did).
func TestAllocGateQuorumRead(t *testing.T) {
	cluster, _, clock := newTestCluster(t, true, true)
	cluster.Preload("k", []byte("payload"))
	kv := NewKV(NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{}))
	ctx := context.Background()

	strong := func() {
		if _, err := kv.GetStrong(ctx, "k").Final(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var cor *core.Correctable[[]byte]
	icg := func() {
		cor = kv.Get(ctx, "k")
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		strong()
		icg()
	}
	if n := len(cor.Views()); n != 2 {
		t.Fatalf("correctable read delivered %d views, want preliminary + final", n)
	}
	for _, g := range []struct {
		name   string
		read   func()
		budget float64
	}{
		{"strong-only R=2", strong, 3},
		{"correctable R=2 (preliminary + final)", icg, 3},
	} {
		got := testing.AllocsPerRun(500, g.read)
		t.Logf("allocs/%s read: %.1f", g.name, got)
		if got > g.budget {
			t.Errorf("%s read allocates %.1f/op, budget %.0f", g.name, got, g.budget)
		}
	}

	w2 := NewKV(NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{WriteQuorum: 2}))
	for _, g := range []struct {
		name string
		op   func()
	}{
		{"strong-only R=2 read", strong},
		{"correctable R=2 read", icg},
		{"W=2 write", func() {
			if _, err := w2.Put(ctx, "k", []byte("payload")).Final(ctx); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		before := clock.Spawned()
		g.op()
		if n := clock.Spawned() - before; n != 0 {
			t.Errorf("a %s starts %d actors, want none", g.name, n)
		}
	}
	clock.Drain()
}
