//go:build !race

package causal

import (
	"context"
	"testing"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// TestAllocGateLadderRead pins what one three-level read through the Binding
// costs end to end — client library, binding, the two remote reads, three
// views — on a warm virtual clock (worker pool and record free list
// populated). The budget is absolute: 7 (8 while every read sorted the
// backups by proximity; the client now asks once, when it is built) — the
// boxed operation, the Correctable, the library's result callback, the view
// list's growth, and the three views' boxes on the binding wire
// (binding.Result.Value is an interface; the benchmark pins it). The
// operation is a record and its remote reads are round trips on it: they
// allocate nothing and start no actor, so a ladder read starts none (three
// while the reads were actors, one while the operation was).
func TestAllocGateLadderRead(t *testing.T) {
	s, clock := newTestStore(t)
	s.Preload("k", []byte("payload"))
	c := NewClient(s, netsim.IRL)
	if want := s.nearestBackup(c.Region); c.backup != want {
		t.Fatalf("the client's causal level reads %s, want the nearest backup, %s", c.backup, want)
	}
	kv := NewKV(NewBinding(c))
	ctx := context.Background()
	var cor *core.Correctable[[]byte]
	read := func() {
		cor = kv.Get(ctx, "k")
		if _, err := cor.Final(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		read() // the first one fills the cache
	}
	if n := len(cor.Views()); n != 3 {
		t.Fatalf("ladder read delivered %d views, want cache, causal and strong", n)
	}
	const budget = 7
	got := testing.AllocsPerRun(500, read)
	t.Logf("allocs/ladder read: %.1f", got)
	if got > budget {
		t.Errorf("a ladder read allocates %.1f/op, budget %d", got, budget)
	}
	before := clock.Spawned()
	read()
	if n := clock.Spawned() - before; n != 0 {
		t.Errorf("a ladder read starts %d actors, want none", n)
	}
	clock.Drain()
}
