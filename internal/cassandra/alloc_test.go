//go:build !race

package cassandra

import (
	"context"
	"testing"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// TestAllocGateQuorumRead pins what one read through the Binding costs end
// to end — client library, binding, coordinator, one peer leg, views — on
// a warm virtual clock (worker pool, event and gather freelists populated).
// The budgets are absolute, and what is left is what the caller keeps plus
// one closure per actor body or callback:
//
//   - strong-only R=2 read, 8 (20 before the pooled scheduler and the
//     single-copy read path): the boxed operation, the Correctable, the
//     library's result callback, the SubmitOperation actor body, the
//     binding's view callback, the peer-leg actor body, the view's value
//     copy and its box on the binding wire;
//   - correctable R=2 read, 11 (27 before): the same plus the preliminary's
//     flush callback, value copy and box.
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
		{"strong-only R=2", strong, 8},
		{"correctable R=2 (preliminary + final)", icg, 11},
	} {
		got := testing.AllocsPerRun(500, g.read)
		t.Logf("allocs/%s read: %.1f", g.name, got)
		if got > g.budget {
			t.Errorf("%s read allocates %.1f/op, budget %.0f", g.name, got, g.budget)
		}
	}
	clock.Drain()
}
