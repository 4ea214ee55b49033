package causal

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

func newTestStore(t *testing.T) (*Store, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	s, err := NewStore(Config{
		Primary:          netsim.VRG,
		Backups:          []netsim.Region{netsim.FRK, netsim.IRL},
		Transport:        tr,
		ServiceTime:      50 * time.Microsecond,
		PropagationDelay: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore(Config{}); err == nil {
		t.Error("missing transport accepted")
	}
	tr := netsim.NewTransport(netsim.NewVirtualClock(), netsim.DefaultLatencies(), nil, 1)
	if _, err := NewStore(Config{Transport: tr}); err == nil {
		t.Error("missing primary accepted")
	}
	if _, err := NewStore(Config{Transport: tr, Primary: netsim.FRK, Backups: []netsim.Region{netsim.FRK}}); err == nil {
		t.Error("duplicate regions accepted")
	}
}

func TestWritePropagatesInOrder(t *testing.T) {
	s, clock := newTestStore(t)
	for _, v := range []string{"v1", "v2", "v3"} {
		s.commit("k", []byte(v))
	}
	// Primary has v3 immediately.
	if got := s.ReplicaEntry(netsim.VRG, "k"); string(got.Value) != "v3" {
		t.Errorf("primary = %q", got.Value)
	}
	// Backups converge to v3 (never regress) once propagation drains.
	clock.Drain()
	if e := s.ReplicaEntry(netsim.FRK, "k"); string(e.Value) != "v3" {
		t.Fatalf("backup never converged: %q", e.Value)
	}
}

// Property: delivering propagations in any order applies them in version
// order (replica state equals the max version).
func TestPropertyDeliveryOrderIndependence(t *testing.T) {
	f := func(perm []uint8) bool {
		n := len(perm)
		if n == 0 || n > 15 {
			return true
		}
		r := &replica{data: map[string]Entry{}, pending: map[uint64]propagation{}}
		order := make([]int, n)
		for i := range order {
			order[i] = i + 1
		}
		for i := range order {
			j := int(perm[i]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, v := range order {
			r.deliver(uint64(v), "k", Entry{Value: []byte{byte(v)}, Ver: uint64(v), Exists: true})
		}
		got := r.data["k"]
		return got.Exists && got.Ver == uint64(n) && r.applied == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBindingThreeLevels(t *testing.T) {
	s, _ := newTestStore(t)
	s.Preload("news", []byte("old-headline"))
	c := NewClient(s, netsim.IRL)
	b := NewBinding(c)
	kv := NewKV(b)

	// First access: cache is cold, so only causal + strong views arrive.
	cor := kv.Get(context.Background(), "news")
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != core.LevelStrong || string(v.Value) != "old-headline" {
		t.Errorf("final = %+v", v)
	}
	if n := len(cor.Views()); n != 2 {
		t.Errorf("cold-cache views = %d, want 2 (causal+strong)", n)
	}

	// Second access: the cache is warm; three views.
	cor2 := kv.Get(context.Background(), "news")
	if _, err := cor2.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	views := cor2.Views()
	if len(views) != 3 {
		t.Fatalf("warm-cache views = %d, want 3", len(views))
	}
	if views[0].Level != core.LevelCache || views[1].Level != core.LevelCausal || views[2].Level != core.LevelStrong {
		t.Errorf("view levels = %v %v %v", views[0].Level, views[1].Level, views[2].Level)
	}
}

func TestBindingCacheLatencyNearZero(t *testing.T) {
	s, clock := newTestStore(t)
	s.Preload("k", []byte("v"))
	c := NewClient(s, netsim.IRL)
	b := NewBinding(c)
	kv := NewKV(b)
	// Warm the cache.
	if _, err := kv.GetStrong(context.Background(), "k").Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	sw := clock.StartStopwatch()
	cor := kv.Get(context.Background(), "k", core.LevelCache)
	if _, err := cor.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lat := sw.ElapsedModel(); lat > 15*time.Millisecond {
		t.Errorf("cache-only read took %v model, want ~0", lat)
	}
}

func TestBindingWriteThroughCoherence(t *testing.T) {
	s, _ := newTestStore(t)
	c := NewClient(s, netsim.IRL)
	b := NewBinding(c)
	kv := NewKV(b)
	if _, err := kv.Put(context.Background(), "k", []byte("mine")).Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The writer's own cache reflects the write immediately.
	if e := c.CacheGet("k"); !e.Exists || string(e.Value) != "mine" {
		t.Errorf("cache after write-through = %+v", e)
	}
	// Cache-level read returns it with no network.
	cor := kv.Get(context.Background(), "k", core.LevelCache)
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "mine" {
		t.Errorf("cache read = %q", v.Value)
	}
}

func TestBindingStaleCacheFreshFinal(t *testing.T) {
	s, _ := newTestStore(t)
	s.Preload("k", []byte("v0"))
	reader := NewClient(s, netsim.IRL)
	b := NewBinding(reader)
	rkv := NewKV(b)
	// Warm reader's cache with v0.
	if _, err := rkv.GetStrong(context.Background(), "k").Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Another client writes v1.
	writer := NewClient(s, netsim.FRK)
	wkv := NewKV(NewBinding(writer))
	if _, err := wkv.Put(context.Background(), "k", []byte("v1")).Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Reader's ICG access: cache view is stale v0, strong view is fresh v1.
	cor := rkv.Get(context.Background(), "k")
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	views := cor.Views()
	if string(views[0].Value) != "v0" {
		t.Errorf("cache view = %q, want stale v0", views[0].Value)
	}
	if string(v.Value) != "v1" {
		t.Errorf("final = %q, want v1", v.Value)
	}
	// And coherence: the reader's cache has been refreshed.
	if e := reader.CacheGet("k"); string(e.Value) != "v1" {
		t.Errorf("cache after read = %q", e.Value)
	}
}

func TestBindingUnsupportedOp(t *testing.T) {
	s, _ := newTestStore(t)
	client := binding.NewClient(NewBinding(NewClient(s, netsim.IRL)))
	if _, err := binding.Invoke[binding.Item](context.Background(), client, binding.Dequeue{Queue: "q"}).Final(context.Background()); err == nil {
		t.Error("dequeue on causal store should fail")
	}
}

func TestCacheMissOnCacheOnlyRequest(t *testing.T) {
	s, _ := newTestStore(t)
	kv := NewKV(NewBinding(NewClient(s, netsim.IRL)))
	cor := kv.Get(context.Background(), "absent", core.LevelCache)
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Value) != 0 {
		t.Errorf("cache miss value = %v, want empty", v.Value)
	}
}

// TestBindingCausalViewNeverRegressesBehindCache is the ladder-regression
// fix's test: the nearest backup lags the primary by the propagation delay,
// so right after a write its raw entry is older than the client's cache.
// The causal view must be the max of the two — an incremental ladder
// refines, it never regresses — while the raw backup is verifiably stale.
func TestBindingCausalViewNeverRegressesBehindCache(t *testing.T) {
	s, _ := newTestStore(t)
	c := NewClient(s, netsim.IRL)
	kv := NewKV(NewBinding(c))
	ctx := context.Background()

	// Write through the primary: the cache holds the newest value while the
	// backups have not yet seen any propagation.
	for _, v := range []string{"v1", "v2", "v3"} {
		if _, err := kv.Put(ctx, "k", []byte(v)).Final(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if e := s.ReplicaEntry(s.nearestBackup(netsim.IRL), "k"); e.Exists && string(e.Value) == "v3" {
		t.Skip("backup caught up before the read; propagation delay too short for this test")
	}

	cor := kv.Get(ctx, "k")
	if _, err := cor.Final(ctx); err != nil {
		t.Fatal(err)
	}
	views := cor.Views()
	if len(views) != 3 {
		t.Fatalf("views = %d, want 3 (cache, causal, strong)", len(views))
	}
	for i, v := range views {
		if string(v.Value) != "v3" {
			t.Errorf("view %d (%v) = %q, want v3 (ladder regressed)", i, v.Level, v.Value)
		}
	}
}
