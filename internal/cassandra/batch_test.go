package cassandra

import (
	"context"
	"fmt"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// TestBatchedGetMatchesUnbatchedSemantics: gets issued through a Batcher
// over a sharded correctable cluster coalesce into per-shard dispatches
// (CatBatch work appears on the coordinator tracks) while every session
// still observes the unbatched contract — a weak view first, then the
// LWW-reconciled strong view, both carrying the preloaded value and a
// version token.
func TestBatchedGetMatchesUnbatchedSemantics(t *testing.T) {
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	cluster, err := NewCluster(Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		Correctable:      true,
		ConfirmationOpt:  true,
		Shards:           4,
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
		FlushServiceTime: 20 * time.Microsecond,
		Workers:          4,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	trc := trace.New()
	cluster.SetTrace(trc)

	const n = 16
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		cluster.Preload(keys[i], []byte(fmt.Sprintf("val-%02d", i)))
	}

	bind := NewBinding(NewClient(cluster, netsim.FRK, netsim.FRK), BindingConfig{})
	if sh, ok := bind.BatchKey(binding.Get{Key: keys[0]}); !ok || sh != cluster.ShardOf(keys[0]) {
		t.Fatalf("BatchKey(%q) = (%d,%v), want the owner shard", keys[0], sh, ok)
	}
	bt := binding.NewBatcher(bind, clock, 200*time.Microsecond)
	c := binding.NewClient(bt)
	ctx := context.Background()

	type view struct {
		weak, strong string
		err          error
	}
	views := make([]view, n)
	for i := range keys {
		i := i
		clock.Go(func() {
			cor := binding.Invoke[[]byte](ctx, c, binding.Get{Key: keys[i]})
			s, err := cor.Final(ctx)
			if err != nil {
				views[i].err = err
				return
			}
			views[i].weak = string(cor.Views()[0].Value)
			views[i].strong = string(s.Value)
		})
	}
	clock.Drain()

	for i, v := range views {
		if v.err != nil {
			t.Fatalf("get %q: %v", keys[i], v.err)
		}
		want := fmt.Sprintf("val-%02d", i)
		if v.weak != want || v.strong != want {
			t.Errorf("get %q: weak=%q strong=%q, want %q", keys[i], v.weak, v.strong, want)
		}
	}
	totals := trc.CategoryTotals(0, clock.Now())
	if totals.Get(trace.CatBatch) == 0 {
		t.Error("no CatBatch work traced — gets did not ride coalesced dispatches")
	}
	if totals.Get(trace.CatRoute) != 0 {
		t.Error("batched dispatches must not pay the contact-node routing hop")
	}
}

// TestBatchKeyDeclinesVanilla: on a non-Correctable cluster the coalesced
// ICG round is unavailable, so BatchKey sends gets down the direct path.
func TestBatchKeyDeclinesVanilla(t *testing.T) {
	cluster, _, _ := newTestCluster(t, false, false)
	bind := NewBinding(NewClient(cluster, netsim.FRK, netsim.FRK), BindingConfig{})
	if _, ok := bind.BatchKey(binding.Get{Key: "k"}); ok {
		t.Error("vanilla cluster must not batch")
	}
	if _, ok := bind.BatchKey(binding.Put{Key: "k"}); ok {
		t.Error("puts must not batch")
	}
}
