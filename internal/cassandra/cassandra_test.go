package cassandra

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// Tests run on the virtual clock: deterministic, instant, and exact — no
// sleep-granularity noise in latency assertions.

func newTestCluster(t *testing.T, correctable, confirmOpt bool) (*Cluster, *netsim.Meter, netsim.Clock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, 1)
	cluster, err := NewCluster(Config{
		Regions:         []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:       tr,
		Correctable:     correctable,
		ConfirmationOpt: confirmOpt,
		// Keep service times tiny so latency assertions are about RTTs.
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
		FlushServiceTime: 20 * time.Microsecond,
		Workers:          8,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, meter, clock
}

func TestVersionedNewerAndSame(t *testing.T) {
	a := Versioned{Value: []byte("a"), TS: 1, Exists: true}
	b := Versioned{Value: []byte("b"), TS: 2, Exists: true}
	if !b.Newer(a) || a.Newer(b) {
		t.Error("timestamp ordering broken")
	}
	none := Versioned{}
	if none.Newer(a) || !a.Newer(none) {
		t.Error("absent-version ordering broken")
	}
	tie1 := Versioned{TS: 5, NodeID: 1, Exists: true}
	tie2 := Versioned{TS: 5, NodeID: 2, Exists: true}
	if !tie2.Newer(tie1) || tie1.Newer(tie2) {
		t.Error("node-id tiebreak broken")
	}
	if !a.Same(Versioned{Value: []byte("a"), TS: 1, Exists: true}) {
		t.Error("Same broken for equal versions")
	}
	if a.Same(b) {
		t.Error("Same true for different versions")
	}
}

// Property: LWW tables converge — applying any permutation of the same
// version set to two tables yields identical contents.
func TestPropertyLWWConvergence(t *testing.T) {
	f := func(tsList []uint16, perm []uint8) bool {
		if len(tsList) == 0 {
			return true
		}
		versions := make([]Versioned, len(tsList))
		for i, ts := range tsList {
			versions[i] = Versioned{
				Value:  []byte(fmt.Sprintf("v%d", ts)),
				TS:     uint64(ts),
				NodeID: uint8(i % 3),
				Exists: true,
			}
		}
		t1, t2 := newTable(), newTable()
		for _, v := range versions {
			t1.apply("k", v)
		}
		// Apply in a permuted order derived from perm.
		shuffled := append([]Versioned(nil), versions...)
		for i := range shuffled {
			j := 0
			if len(perm) > 0 {
				j = int(perm[i%len(perm)]) % (i + 1)
			}
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for _, v := range shuffled {
			t2.apply("k", v)
		}
		return t1.get("k").Same(t2.get("k"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReadR1Latency(t *testing.T) {
	cluster, _, clock := newTestCluster(t, false, false)
	cluster.Preload("k", []byte("value"))
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	sw := clock.StartStopwatch()
	var got ReadView
	if err := client.Read("k", 1, false, func(v ReadView) { got = v }); err != nil {
		t.Fatal(err)
	}
	lat := sw.ElapsedModel()
	// C1: one client<->coordinator round trip = 20ms IRL-FRK RTT.
	if lat < 15*time.Millisecond || lat > 45*time.Millisecond {
		t.Errorf("R=1 latency = %v, want ~20ms", lat)
	}
	if string(got.Value) != "value" || !got.Final || got.Level != core.LevelWeak {
		t.Errorf("view = %+v", got)
	}
}

func TestReadR2Latency(t *testing.T) {
	cluster, _, clock := newTestCluster(t, false, false)
	cluster.Preload("k", []byte("value"))
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	sw := clock.StartStopwatch()
	var got ReadView
	if err := client.Read("k", 2, false, func(v ReadView) { got = v }); err != nil {
		t.Fatal(err)
	}
	lat := sw.ElapsedModel()
	// C2: client RTT (20ms) + coordinator's RTT to its nearest peer, which
	// for FRK is IRL (20ms) => ~40ms.
	if lat < 32*time.Millisecond || lat > 70*time.Millisecond {
		t.Errorf("R=2 latency = %v, want ~40ms", lat)
	}
	if got.Level != core.LevelStrong {
		t.Errorf("level = %v", got.Level)
	}
}

func TestCorrectableReadDeliversPrelimThenFinal(t *testing.T) {
	cluster, _, clock := newTestCluster(t, true, false)
	cluster.Preload("k", []byte("value"))
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	type timed struct {
		v  ReadView
		at time.Duration
	}
	var views []timed
	sw := clock.StartStopwatch()
	if err := client.Read("k", 2, true, func(v ReadView) {
		views = append(views, timed{v, sw.ElapsedModel()})
	}); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("got %d views, want 2", len(views))
	}
	prelim, final := views[0], views[1]
	if prelim.v.Final || prelim.v.Level != core.LevelWeak {
		t.Errorf("prelim = %+v", prelim.v)
	}
	if !final.v.Final || final.v.Level != core.LevelStrong {
		t.Errorf("final = %+v", final.v)
	}
	if !final.v.Version.Same(prelim.v.Version) {
		t.Error("identical views should carry the same version")
	}
	// Latency gap between preliminary and final is the coordinator's quorum
	// RTT: FRK->IRL = 20ms (paper Fig 5: gap for CC2 is 20ms).
	gap := final.at - prelim.at
	if gap < 12*time.Millisecond || gap > 45*time.Millisecond {
		t.Errorf("prelim/final gap = %v, want ~20ms", gap)
	}
}

func TestCC3GapLargerThanCC2(t *testing.T) {
	cluster, _, clock := newTestCluster(t, true, false)
	cluster.Preload("k", []byte("v"))
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	gap := func(q int) time.Duration {
		sw := clock.StartStopwatch()
		var at []time.Duration
		if err := client.Read("k", q, true, func(ReadView) {
			at = append(at, sw.ElapsedModel())
		}); err != nil {
			t.Fatal(err)
		}
		return at[1] - at[0]
	}
	g2, g3 := gap(2), gap(3)
	// CC3 must wait for VRG (FRK-VRG RTT 89ms) vs CC2's IRL (20ms).
	if g3 < 2*g2 {
		t.Errorf("CC3 gap (%v) should be much larger than CC2 gap (%v)", g3, g2)
	}
}

func TestDivergenceAndConvergence(t *testing.T) {
	cluster, _, clock := newDivergenceCluster(t, false)
	cluster.Preload("k", []byte("old"))
	// Writer colocated with the IRL coordinator: IRL is fresh immediately;
	// FRK/VRG converge only after the (long) replication delay, so a prompt
	// read through FRK sees a stale preliminary but a fresh final (its
	// quorum includes IRL).
	writer := NewClient(cluster, netsim.IRL, netsim.IRL)
	if err := writer.Write("k", []byte("new"), 1); err != nil {
		t.Fatal(err)
	}
	// Reader in IRL contacts FRK; quorum partner for FRK is IRL (fresh).
	reader := NewClient(cluster, netsim.IRL, netsim.FRK)
	var views []ReadView
	if err := reader.Read("k", 2, true, func(v ReadView) { views = append(views, v) }); err != nil {
		t.Fatal(err)
	}
	if string(views[0].Value) != "old" {
		t.Errorf("preliminary = %q, want stale 'old'", views[0].Value)
	}
	if string(views[1].Value) != "new" {
		t.Errorf("final = %q, want fresh 'new'", views[1].Value)
	}
	if views[1].Version.Same(views[0].Version) {
		t.Error("diverged read must not confirm its preliminary's version")
	}
	// After the replication delay (model time), the preliminary catches up.
	clock.Sleep(cluster.cfg.ReplicationDelay + 120*time.Millisecond)
	views = views[:0]
	if err := reader.Read("k", 2, true, func(v ReadView) { views = append(views, v) }); err != nil {
		t.Fatal(err)
	}
	if string(views[0].Value) != "new" || !views[1].Version.Same(views[0].Version) {
		t.Errorf("after convergence: prelim=%q at %+v, final at %+v", views[0].Value, views[0].Version, views[1].Version)
	}
}

// newDivergenceCluster builds a correctable cluster with a long replication
// delay so that prompt reads reliably observe staleness.
func newDivergenceCluster(t *testing.T, confirmOpt bool) (*Cluster, *netsim.Meter, netsim.Clock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, 1)
	cluster, err := NewCluster(Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		Correctable:      true,
		ConfirmationOpt:  confirmOpt,
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
		FlushServiceTime: 20 * time.Microsecond,
		ReplicationDelay: 150 * time.Millisecond,
		Workers:          8,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, meter, clock
}

func TestConfirmationOptimizationShrinksFinal(t *testing.T) {
	run := func(confirmOpt bool) int64 {
		cluster, meter, _ := newTestCluster(t, true, confirmOpt)
		val := make([]byte, 1000)
		cluster.Preload("k", val)
		client := NewClient(cluster, netsim.IRL, netsim.FRK)
		base := meter.Class(netsim.LinkClient).Bytes
		if err := client.Read("k", 2, true, func(ReadView) {}); err != nil {
			t.Fatal(err)
		}
		return meter.Class(netsim.LinkClient).Bytes - base
	}
	plain := run(false)
	optimized := run(true)
	// Optimized: request + full prelim + tiny confirmation.
	// Plain: request + full prelim + full final.
	saved := plain - optimized
	wantSaved := int64(readResponseSize(make([]byte, 1000)) - ConfirmationSize)
	if saved != wantSaved {
		t.Errorf("confirmation optimization saved %d bytes, want %d", saved, wantSaved)
	}
}

func TestDivergedFinalIsFullSizeEvenWithOpt(t *testing.T) {
	cluster, meter, _ := newDivergenceCluster(t, true)
	cluster.Preload("k", make([]byte, 500))
	writer := NewClient(cluster, netsim.IRL, netsim.IRL)
	if err := writer.Write("k", make([]byte, 500), 1); err != nil {
		t.Fatal(err)
	}
	reader := NewClient(cluster, netsim.IRL, netsim.FRK)
	base := meter.Class(netsim.LinkClient).Bytes
	var views []ReadView
	if err := reader.Read("k", 2, true, func(v ReadView) { views = append(views, v) }); err != nil {
		t.Fatal(err)
	}
	bytes := meter.Class(netsim.LinkClient).Bytes - base
	if len(views) != 2 || views[1].Version.Same(views[0].Version) {
		t.Fatalf("expected divergence in this scenario, got %+v", views)
	}
	want := int64(readRequestSize("k") + 2*readResponseSize(make([]byte, 500)))
	if bytes != want {
		t.Errorf("diverged CC read transferred %d bytes, want %d (two full responses)", bytes, want)
	}
}

func TestWriteQuorumW2Blocks(t *testing.T) {
	cluster, _, clock := newTestCluster(t, false, false)
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	sw := clock.StartStopwatch()
	if err := client.Write("k", []byte("v"), 2); err != nil {
		t.Fatal(err)
	}
	lat := sw.ElapsedModel()
	// W=2 waits for the FRK->IRL replication round trip: >= ~40ms total.
	if lat < 32*time.Millisecond {
		t.Errorf("W=2 write latency = %v, want >= ~40ms", lat)
	}
	// Both FRK and IRL must have the value now.
	if !cluster.Replica(netsim.FRK).Get("k").Exists || !cluster.Replica(netsim.IRL).Get("k").Exists {
		t.Error("synchronous write quorum replicas missing the value")
	}
}

func TestQuorumBoundsValidation(t *testing.T) {
	cluster, _, _ := newTestCluster(t, false, false)
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	if err := client.Read("k", 0, false, nil); err == nil {
		t.Error("R=0 accepted")
	}
	if err := client.Read("k", 4, false, nil); err == nil {
		t.Error("R=4 accepted with RF=3")
	}
	if err := client.Write("k", nil, 0); err == nil {
		t.Error("W=0 accepted")
	}
	if err := client.Write("k", nil, 4); err == nil {
		t.Error("W=4 accepted with RF=3")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Error("missing transport accepted")
	}
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), nil, 1)
	if _, err := NewCluster(Config{Transport: tr}); err == nil {
		t.Error("empty region list accepted")
	}
	if _, err := NewCluster(Config{Transport: tr, Regions: []netsim.Region{netsim.FRK, netsim.FRK}}); err == nil {
		t.Error("duplicate regions accepted")
	}
}

func TestNearestRemote(t *testing.T) {
	cluster, _, _ := newTestCluster(t, false, false)
	if got := cluster.NearestRemote(netsim.IRL); got != netsim.FRK {
		t.Errorf("NearestRemote(IRL) = %s, want FRK", got)
	}
	if got := cluster.NearestRemote(netsim.FRK); got != netsim.IRL {
		t.Errorf("NearestRemote(FRK) = %s, want IRL", got)
	}
}

// Property: a full-quorum (R=RF) read always returns the newest version
// present on any replica, whatever the per-replica states are.
func TestPropertyFullQuorumReadsNewest(t *testing.T) {
	cluster, _, _ := newTestCluster(t, false, false)
	client := NewClient(cluster, netsim.IRL, netsim.FRK)
	regions := cluster.Regions()
	f := func(tss [3]uint16) bool {
		key := fmt.Sprintf("k%d-%d-%d", tss[0], tss[1], tss[2])
		var newest Versioned
		for i, region := range regions {
			v := Versioned{
				Value:  []byte(fmt.Sprintf("val-%d", tss[i])),
				TS:     uint64(tss[i]) + 1,
				NodeID: uint8(i),
				Exists: true,
			}
			cluster.Replica(region).Apply(key, v)
			if v.Newer(newest) {
				newest = v
			}
		}
		var got ReadView
		if err := client.Read(key, 3, false, func(v ReadView) { got = v }); err != nil {
			return false
		}
		return got.Version.Same(newest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBindingInvokeICG(t *testing.T) {
	cluster, _, _ := newTestCluster(t, true, true)
	cluster.Preload("k", []byte("data"))
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	kv := NewKV(b)
	cor := kv.Get(context.Background(), "k")
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "data" || v.Level != core.LevelStrong {
		t.Errorf("final = %+v", v)
	}
	views := cor.Views()
	if len(views) != 2 || views[0].Level != core.LevelWeak {
		t.Errorf("views = %+v", views)
	}
}

func TestBindingInvokeWeakAndStrong(t *testing.T) {
	cluster, _, _ := newTestCluster(t, true, true)
	cluster.Preload("k", []byte("data"))
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	kv := NewKV(b)

	cw := kv.Get(context.Background(), "k", core.LevelWeak)
	vw, err := cw.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vw.Level != core.LevelWeak || len(cw.Views()) != 1 {
		t.Errorf("InvokeWeak: %+v (%d views)", vw, len(cw.Views()))
	}

	cs := kv.GetStrong(context.Background(), "k")
	vs, err := cs.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vs.Level != core.LevelStrong || len(cs.Views()) != 1 {
		t.Errorf("InvokeStrong: %+v (%d views)", vs, len(cs.Views()))
	}
}

// TestBindingStrongQuorumOneCloses: a binding whose strong level is served
// by R=1 answers an incremental read with a single view, and that view must
// close the Correctable — the last view of a request goes out at the
// strongest level it asked for, whatever quorum served it. It used to go out
// weak, and the library waited for the strong view for good.
func TestBindingStrongQuorumOneCloses(t *testing.T) {
	cluster, _, clock := newTestCluster(t, true, true)
	cluster.Preload("k", []byte("data"))
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{StrongQuorum: 1})
	cor := binding.Invoke[[]byte](context.Background(), binding.NewClient(b), binding.Get{Key: "k"})
	clock.Drain()
	if st := cor.State(); st != core.StateFinal {
		t.Fatalf("state = %v after the clock drained, want %v", st, core.StateFinal)
	}
	views := cor.Views()
	if n := len(views); n != 1 && n != 2 {
		t.Fatalf("views = %+v, want one or two", views)
	}
	if last := views[len(views)-1]; !last.Final || last.Level != core.LevelStrong || string(last.Value) != "data" {
		t.Errorf("closing view = %+v", last)
	}
	if n := clock.Parked(); n != 0 {
		t.Errorf("%d actors still parked after Drain", n)
	}
}

func TestBindingPut(t *testing.T) {
	cluster, _, _ := newTestCluster(t, true, true)
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	kv := NewKV(b)
	if _, err := kv.Put(context.Background(), "k", []byte("v")).Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Replica(netsim.FRK).Get("k"); string(got.Value) != "v" {
		t.Errorf("coordinator state = %+v", got)
	}
}

func TestBindingUnsupportedOp(t *testing.T) {
	cluster, _, _ := newTestCluster(t, true, true)
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	if _, err := binding.Invoke[binding.Item](context.Background(), binding.NewClient(b), binding.Dequeue{Queue: "q"}).Final(context.Background()); err == nil {
		t.Error("dequeue on cassandra should fail")
	}
}

// TestBindingVanillaICGIsOneStrongRead: a vanilla cluster has no
// preliminary flush, so a two-level Invoke is its strong read alone — one
// request and one response on the client link, and a single strong view
// that closes the Correctable: the contract of a Correctable read whose
// preliminary was lost.
func TestBindingVanillaICGIsOneStrongRead(t *testing.T) {
	cluster, meter, clock := newTestCluster(t, false, false)
	cluster.Preload("k", []byte("data"))
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	cor := NewKV(b).Get(context.Background(), "k")
	v, err := cor.Final(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Value) != "data" || v.Level != core.LevelStrong {
		t.Errorf("final = %+v", v)
	}
	if views := cor.Views(); len(views) != 1 {
		t.Errorf("views = %+v, want the strong view alone", views)
	}
	clock.Drain()
	if got := meter.Class(netsim.LinkClient).Messages; got != 2 {
		t.Errorf("client-link messages = %d, want 2 (one request, one response)", got)
	}
}

// TestConcurrentClients: eight client actors interleave reads and writes
// over one cluster, and the drained world leaves no goroutine behind — a
// fixture that forgets its Drain fails here (see netsim's pool_test.go).
func TestConcurrentClients(t *testing.T) {
	base := runtime.NumGoroutine()
	cluster, _, clock := newTestCluster(t, true, true)
	for i := 0; i < 20; i++ {
		cluster.Preload(fmt.Sprintf("k%d", i), []byte("v"))
	}
	clients := clock.NewGroup()
	for i := 0; i < 8; i++ {
		clients.Add(1)
		clock.Go(func() {
			defer clients.Done()
			client := NewClient(cluster, netsim.IRL, netsim.FRK)
			for j := 0; j < 10; j++ {
				key := fmt.Sprintf("k%d", (i*10+j)%20)
				if j%3 == 0 {
					if err := client.Write(key, []byte(fmt.Sprintf("v%d-%d", i, j)), 1); err != nil {
						t.Errorf("client %d write %d: %v", i, j, err)
					}
				} else if err := client.Read(key, 2, true, func(ReadView) {}); err != nil {
					t.Errorf("client %d read %d: %v", i, j, err)
				}
			}
		})
	}
	clients.Wait()
	clock.Drain()
	waitGoroutines(t, base)
}

func TestPreloadReachesAllReplicas(t *testing.T) {
	cluster, _, _ := newTestCluster(t, false, false)
	cluster.Preload("k", []byte("v"))
	for _, region := range cluster.Regions() {
		if got := cluster.Replica(region).Get("k"); !got.Exists || string(got.Value) != "v" {
			t.Errorf("replica %s missing preloaded value", region)
		}
	}
	if cluster.Replica(netsim.FRK).Keys() != 1 {
		t.Errorf("Keys = %d", cluster.Replica(netsim.FRK).Keys())
	}
}
