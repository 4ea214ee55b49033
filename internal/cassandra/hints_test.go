package cassandra

import (
	"context"
	"fmt"
	"testing"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// newHintedCluster builds a faulted cluster with read repair disabled, so
// any convergence observed comes from hinted handoff alone.
func newHintedCluster(t *testing.T) (*Cluster, *faults.Injector, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	inj := faults.Attach(tr, nil, 1)
	cluster, err := NewCluster(Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
		OpTimeout:        500 * time.Millisecond,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, inj, clock
}

// hintedPut writes through the client library at write quorum w from a
// client colocated with the FRK coordinator: under the injector the
// library bounds each write with the cluster's OpTimeout.
func hintedPut(cluster *Cluster, w int) func(key string, value []byte) error {
	kv := NewKV(NewBinding(NewClient(cluster, netsim.FRK, netsim.FRK), BindingConfig{WriteQuorum: w}))
	return func(key string, value []byte) error {
		_, err := kv.Put(context.Background(), key, value).Final(context.Background())
		return err
	}
}

// TestHintedHandoffReplaysOnRestart: writes issued while a replica is down
// are buffered as hints on the coordinator and delivered on restart — with
// read repair off, the rejoining replica converges through handoff alone,
// where it previously stayed stale until an (unsampled) repair.
func TestHintedHandoffReplaysOnRestart(t *testing.T) {
	cluster, inj, clock := newHintedCluster(t)
	put := hintedPut(cluster, 1)

	inj.Apply(faults.Crash{Region: netsim.VRG})
	for i := 0; i < 5; i++ {
		// W=1: the ack never needs VRG; its async replication is hinted.
		if err := put("k", []byte{byte('a' + i)}); err != nil {
			t.Fatalf("write %d with VRG down: %v", i, err)
		}
	}
	if st := cluster.HintStats(); st.Queued != 5 || st.Replayed != 0 {
		t.Fatalf("stats = %+v, want 5 queued, none replayed", st)
	}
	if got := cluster.Replica(netsim.VRG).Get("k"); got.Exists {
		t.Fatalf("crashed replica saw %q while down", got.Bytes())
	}

	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second) // replayed hints travel FRK->VRG
	if got := cluster.Replica(netsim.VRG).Get("k"); string(got.Bytes()) != "e" {
		t.Fatalf("rejoined replica has %q, want final write %q via hints", got.Bytes(), "e")
	}
	if st := cluster.HintStats(); st.Replayed != 5 || st.Expired != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want all 5 replayed", st)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestHintTTLExpiry: a replica that stays down longer than hintTTL rejoins
// without the expired hints — the bounded window that keeps hint queues
// from masquerading as a durable log.
func TestHintTTLExpiry(t *testing.T) {
	cluster, inj, clock := newHintedCluster(t)
	put := hintedPut(cluster, 1)

	inj.Apply(faults.Crash{Region: netsim.VRG})
	if err := put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(hintTTL + time.Second) // outlive the TTL
	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second)

	if got := cluster.Replica(netsim.VRG).Get("k"); got.Exists {
		t.Fatalf("expired hint still delivered %q", got.Bytes())
	}
	if st := cluster.HintStats(); st.Expired != 1 || st.Replayed != 0 {
		t.Fatalf("stats = %+v, want the one hint expired", st)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestHintQueueBounded: the per-peer queue caps at maxHintsPerPeer with
// drop-oldest eviction — the newest mutations win, and the drop counter
// records the loss.
func TestHintQueueBounded(t *testing.T) {
	cluster, inj, clock := newHintedCluster(t)
	put := hintedPut(cluster, 1)

	const extra = 7
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	inj.Apply(faults.Crash{Region: netsim.VRG})
	for i := 0; i < maxHintsPerPeer+extra; i++ {
		if err := put(key(i), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cluster.HintStats(); st.Dropped != extra {
		t.Fatalf("stats = %+v, want %d dropped by the cap of %d", st, extra, maxHintsPerPeer)
	}

	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second)
	vrg := cluster.Replica(netsim.VRG)
	if got := vrg.Keys(); got != maxHintsPerPeer {
		t.Fatalf("rejoined replica has %d keys, want the %d newest hints", got, maxHintsPerPeer)
	}
	// Drop-oldest: the first writes are gone, the last ones survive.
	for i := 0; i < maxHintsPerPeer+extra; i++ {
		if got, want := vrg.Get(key(i)).Exists, i >= extra; got != want {
			t.Errorf("hint %q delivered = %v, want %v", key(i), got, want)
		}
	}
	inj.Quiesce()
	clock.Drain()
}

// TestHintsFollowPartitionHeal: hints buffer across a partition (not just a
// crash) and replay on the heal transition.
func TestHintsFollowPartitionHeal(t *testing.T) {
	cluster, inj, clock := newHintedCluster(t)
	put := hintedPut(cluster, 2) // IRL acks the quorum

	inj.Apply(faults.Partition{Groups: [][]netsim.Region{
		{netsim.FRK, netsim.IRL}, {netsim.VRG},
	}})
	if err := put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(time.Second)
	if cluster.Replica(netsim.VRG).Get("k").Exists {
		t.Fatal("write crossed the partition")
	}

	inj.Apply(faults.Heal{})
	clock.Sleep(time.Second)
	if got := cluster.Replica(netsim.VRG).Get("k"); string(got.Bytes()) != "v" {
		t.Fatalf("severed replica has %q after heal, want %q via hints", got.Bytes(), "v")
	}
	inj.Quiesce()
	clock.Drain()
}
