package bench

import (
	"context"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// cassandraDB adapts the client library over a cassandra binding to the
// YCSB runner: reads go through the configured invoke shape, strong ones at
// the configured quorum; writes are invokeStrong at W=1, as in the paper.
type cassandraDB struct {
	client *binding.Client
	clock  netsim.Clock
	read   readShape
}

var _ ycsb.DB = (*cassandraDB)(nil)

// Read implements ycsb.DB.
func (db *cassandraDB) Read(rng *rand.Rand, key string) (ycsb.ReadOutcome, error) {
	op := timed(db.clock, db.clock.Now(), db.read(context.Background(), db.client, binding.Get{Key: key}))
	return ycsb.ReadOutcome{
		HasPrelim:     op.HasPrelim,
		PrelimLatency: op.Prelim,
		FinalLatency:  op.Final,
		Diverged:      op.Diverged,
	}, op.err
}

// Update implements ycsb.DB.
func (db *cassandraDB) Update(rng *rand.Rand, key string, value []byte) (time.Duration, error) {
	op := timed(db.clock, db.clock.Now(),
		binding.InvokeStrong[binding.Ack](context.Background(), db.client, binding.Put{Key: key, Value: value}))
	return op.Final, op.err
}

// preloadDataset installs the workload's records on every replica.
func preloadDataset(cluster *cassandra.Cluster, w ycsb.Workload) {
	val := make([]byte, w.ValueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < w.RecordCount; i++ {
		cluster.Preload(ycsb.Key(i), val)
	}
}

// ycsbRun is one YCSB measurement on a fresh fabric: a cluster built from
// copts, w's dataset preloaded, and the three regional client groups driven
// concurrently, seeded from cfg.Seed, with the world played out (mustRun:
// background traffic drained). Results follow cluster.Regions(): FRK, IRL,
// VRG — the paper reports the IRL client, index 1.
func (h *world) ycsbRun(cfg Config, copts cassandraOpts, w ycsb.Workload, quorum int, read readShape,
	threadsPerGroup int, opts ycsb.Options) []*ycsb.Result {
	cluster := h.newCassandra(cfg, copts)
	preloadDataset(cluster, w)
	// The paper's deployment: "3 clients, one per region, with each client
	// connecting to a remote replica".
	regions := cluster.Regions()
	results := make([]*ycsb.Result, len(regions))
	// One shared key chooser: popularity and recency are global properties
	// of the workload, not per-region ones. (With per-group Latest anchors,
	// every group would chase its own writes — which its own coordinator
	// serves fresh — and divergence would vanish.)
	shared := w.NewGenerator()
	for i, r := range regions {
		db := &cassandraDB{client: cassandraClient(cluster, r, cluster.NearestRemote(r), quorum), clock: h.clock, read: read}
		groupOpts := opts
		groupOpts.Threads = threadsPerGroup
		groupOpts.Seed = cfg.Seed + int64(i)*77
		groupOpts.Generator = shared
		h.spawn(func() { results[i] = ycsb.Run(w, db, h.clock, groupOpts) })
	}
	h.mustRun()
	return results
}

// totalThroughput sums attained ops/s over the client groups.
func totalThroughput(results []*ycsb.Result) float64 {
	var total float64
	for _, r := range results {
		total += r.ThroughputOps
	}
	return total
}

// divergence is the percentage of preliminary reads, over all client
// groups, whose final view did not confirm them, and the reads it is over.
func divergence(results []*ycsb.Result) (pct float64, prelims int64) {
	var diverged int64
	for _, r := range results {
		diverged += r.Diverged
		prelims += r.PrelimReads
	}
	return 100 * metrics.Ratio(diverged, prelims), prelims
}
