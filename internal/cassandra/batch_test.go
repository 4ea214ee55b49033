package cassandra

import (
	"context"
	"reflect"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// TestBatcherIsAPassThrough: a get through a Batcher with a 5 ms window
// delivers its preliminary and its final at the same model instants as
// through the bare binding, and the Batcher forwards the binding's levels,
// scheduler and default timeout while reporting no coalesced dispatches.
func TestBatcherIsAPassThrough(t *testing.T) {
	ctx := context.Background()
	get := func(batched bool) core.Timing {
		cluster, _, clock := newTestCluster(t, true, true)
		cluster.Preload("k", []byte("v"))
		b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
		var under binding.Binding = b
		if batched {
			under = binding.NewBatcher(b, clock, 5*time.Millisecond)
		}
		start := clock.Now()
		cor := binding.Invoke[[]byte](ctx, binding.NewClient(under), binding.Get{Key: "k"})
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
		clock.Drain()
		return core.TimingOf(cor, start)
	}
	bare, wrapped := get(false), get(true)
	if !bare.HasPrelim || !bare.HasFinal {
		t.Fatalf("bare get timing %+v, want a preliminary and a final", bare)
	}
	if wrapped != bare {
		t.Errorf("get through the Batcher: preliminary %v, final %v; bare binding: %v, %v",
			wrapped.Prelim, wrapped.Final, bare.Prelim, bare.Final)
	}

	cluster, _, clock := newTestCluster(t, true, true)
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	bt := binding.NewBatcher(b, clock, 5*time.Millisecond)
	if ops, dispatches := bt.Stats(); ops != 0 || dispatches != 0 {
		t.Errorf("Stats() = (%d, %d), want (0, 0)", ops, dispatches)
	}
	if got, want := bt.ConsistencyLevels(), b.ConsistencyLevels(); !reflect.DeepEqual(got, want) {
		t.Errorf("ConsistencyLevels() = %v, want the binding's %v", got, want)
	}
	if got, want := bt.Scheduler(), b.Scheduler(); got != want {
		t.Errorf("Scheduler() = %v, want the binding's %v", got, want)
	}
	// Under a fault the binding bounds each invocation; the Batcher must
	// hand its clients the same bound.
	cluster.tr.SetInterceptor(&dropReplies{})
	if got, want := bt.DefaultOpTimeout(), b.DefaultOpTimeout(); got != want || want == 0 {
		t.Errorf("DefaultOpTimeout() = %v, want the binding's %v (non-zero)", got, want)
	}
}
