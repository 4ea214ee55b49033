package correctables_test

// Integration tests spanning the full stack: Correctables client ->
// binding -> simulated store, under concurrent writers. These assert the
// semantic invariants ICG promises, independent of timing: the two whose
// outcome depends on how reads and writes interleave sweep invariantSeeds
// transport seeds, each a different jitter draw and so a different
// interleaving, replayable by its seed.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"correctables"
	"correctables/internal/cassandra"
	"correctables/internal/history"
	"correctables/internal/netsim"
)

const invariantSeeds = 16

// sweepSeeds runs check as one subtest per transport seed.
func sweepSeeds(t *testing.T, check func(t *testing.T, seed int64)) {
	for seed := int64(11); seed < 11+invariantSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { check(t, seed) })
	}
}

// newIntegrationCluster builds the deployment on a fresh virtual clock whose
// root actor is the calling test; the clock is drained when the test ends.
func newIntegrationCluster(t *testing.T, seed int64) *cassandra.Cluster {
	t.Helper()
	clock := netsim.NewVirtualClock()
	t.Cleanup(clock.Drain)
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), seed)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		Correctable:      true,
		ConfirmationOpt:  true,
		ReadServiceTime:  100 * time.Microsecond,
		WriteServiceTime: 100 * time.Microsecond,
		Workers:          16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

// newIntegrationClient is the client library over a cassandra binding
// (R=2 strong reads, W=1): a client in region contacting coord.
func newIntegrationClient(cluster *cassandra.Cluster, region, coord netsim.Region, opts ...correctables.Option) *correctables.Client {
	return correctables.NewClient(cassandra.NewBinding(
		cassandra.NewClient(cluster, region, coord), cassandra.BindingConfig{}), opts...)
}

// TestInvariantFinalNeverOlderThanPreliminary: within a single ICG read,
// the final view reconciles the preliminary's replica with the quorum, so
// the final value version is always >= the preliminary's — even under
// heavy concurrent writing.
func TestInvariantFinalNeverOlderThanPreliminary(t *testing.T) {
	sweepSeeds(t, finalNeverOlderThanPreliminary)
}

func finalNeverOlderThanPreliminary(t *testing.T, seed int64) {
	cluster := newIntegrationCluster(t, seed)
	clock := cluster.Transport().Clock()
	ctx := context.Background()
	const keys = 8
	for i := 0; i < keys; i++ {
		cluster.Preload(fmt.Sprintf("k%d", i), []byte("v0"))
	}

	stop := false // read and written under the clock's token
	defer func() { stop = true }()
	writers := clock.NewGroup()
	for w, region := range []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG} {
		writers.Add(1)
		clock.Go(func() {
			defer writers.Done()
			client := newIntegrationClient(cluster, region, region)
			for i := 0; !stop; i++ {
				key := fmt.Sprintf("k%d", i%keys)
				_, _ = correctables.InvokeStrong(ctx, client,
					correctables.Put{Key: key, Value: []byte(fmt.Sprintf("w%d-%d", w, i))}).Final(ctx)
			}
		})
	}

	// The recorder keeps each view's version token; tokens order exactly
	// like the store's versions.
	rec := history.NewRecorder()
	reader := newIntegrationClient(cluster, netsim.IRL, netsim.FRK, correctables.WithObserver(rec))
	for i := 0; i < 40; i++ {
		if _, err := correctables.Invoke(ctx, reader, correctables.Get{Key: fmt.Sprintf("k%d", i%keys)}).Final(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stop = true
	writers.Wait()
	for i, op := range rec.Ops() {
		if len(op.Views) != 2 {
			t.Fatalf("read %d: %d views, want preliminary and final", i, len(op.Views))
		}
		if prelim, final := op.Views[0], op.Views[1]; prelim.Version > final.Version {
			t.Fatalf("read %d: preliminary version %d newer than final %d", i, prelim.Version, final.Version)
		}
	}
}

// TestInvariantSpeculationEquivalentToBaseline: for any key state, a
// speculative ICG read post-processed via Speculate must produce exactly
// the value a strong read plus sequential post-processing produces.
func TestInvariantSpeculationEquivalentToBaseline(t *testing.T) {
	sweepSeeds(t, speculationEquivalentToBaseline)
}

func speculationEquivalentToBaseline(t *testing.T, seed int64) {
	cluster := newIntegrationCluster(t, seed)
	client := newIntegrationClient(cluster, netsim.IRL, netsim.FRK)
	ctx := context.Background()

	process := func(v correctables.View[[]byte]) (string, error) {
		return "processed:" + string(v.Value), nil
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("key%d", i)
		cluster.Preload(key, []byte(fmt.Sprintf("value%d", i)))

		spec, err := correctables.Speculate(
			correctables.Invoke(ctx, client, correctables.Get{Key: key}),
			process, nil).Final(ctx)
		if err != nil {
			t.Fatal(err)
		}
		strong, err := correctables.InvokeStrong(ctx, client, correctables.Get{Key: key}).Final(ctx)
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := process(strong)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Value != baseline {
			t.Errorf("key %s: speculative %v != baseline %v", key, spec.Value, baseline)
		}
	}
}

// TestInvariantWeakStrongAgreeOnQuiescentData: with no writes in flight,
// every level of every API method returns the same value.
func TestInvariantWeakStrongAgreeOnQuiescentData(t *testing.T) {
	cluster := newIntegrationCluster(t, 11)
	cluster.Preload("q", []byte("settled"))
	client := newIntegrationClient(cluster, netsim.IRL, netsim.FRK)
	ctx := context.Background()

	weak, err := correctables.InvokeWeak(ctx, client, correctables.Get{Key: "q"}).Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := correctables.InvokeStrong(ctx, client, correctables.Get{Key: "q"}).Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	icg := correctables.Invoke(ctx, client, correctables.Get{Key: "q"})
	final, err := icg.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]byte{weak.Value, strong.Value, final.Value} {
		if string(v) != "settled" {
			t.Errorf("level disagreement: %q", v)
		}
	}
	for _, v := range icg.Views() {
		if string(v.Value) != "settled" {
			t.Errorf("ICG view disagreement: %q", v.Value)
		}
	}
}

// TestInvariantWritesEventuallyVisibleEverywhere: a W=1 write converges to
// every replica (and hence to weak reads through any coordinator).
func TestInvariantWritesEventuallyVisibleEverywhere(t *testing.T) {
	cluster := newIntegrationCluster(t, 11)
	ctx := context.Background()
	writer := newIntegrationClient(cluster, netsim.IRL, netsim.IRL)
	if _, err := correctables.InvokeStrong(ctx, writer, correctables.Put{Key: "conv", Value: []byte("done")}).Final(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.Transport().Clock().Drain() // run the asynchronous replication out
	for _, region := range cluster.Regions() {
		if v := cluster.Replica(region).Get("conv"); string(v.Bytes()) != "done" {
			t.Errorf("replica %s never converged: %q", region, v.Bytes())
		}
	}
}
