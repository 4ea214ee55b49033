package bench

import (
	"bytes"
	"testing"
)

// TestCapacityQuick runs the scaled-down capacity study and checks the
// shape every cell must have: sessions flow, batching engages, the shard
// keyspace spreads, and the checked sub-population stays clean.
func TestCapacityQuick(t *testing.T) {
	res := Capacity(Config{Quick: true, Seed: 11})
	t.Logf("\n%s", res.Format())
	if got, want := len(res.Rows), 4; got != want {
		t.Fatalf("rows = %d, want %d shard cells", got, want)
	}
	for _, r := range res.Rows {
		if r.SessionsStarted == 0 || r.SessionsCompleted == 0 {
			t.Errorf("shards=%d: started=%d completed=%d, want sessions to flow",
				r.Shards, r.SessionsStarted, r.SessionsCompleted)
		}
		if r.ThroughputOps <= 0 {
			t.Errorf("shards=%d: no ops throughput", r.Shards)
		}
		if r.BatchMeanOps < 1 {
			t.Errorf("shards=%d: batch mean %.2f, want coalesced dispatches", r.Shards, r.BatchMeanOps)
		}
		if r.FinalMeanMs < r.WeakMeanMs {
			t.Errorf("shards=%d: final view (%.2f ms) faster than weak (%.2f ms)",
				r.Shards, r.FinalMeanMs, r.WeakMeanMs)
		}
		if len(r.PerShardHandled) != r.Shards {
			t.Errorf("shards=%d: per-shard vector has %d entries", r.Shards, len(r.PerShardHandled))
		}
		for s, n := range r.PerShardHandled {
			if n == 0 {
				t.Errorf("shards=%d: shard %d handled nothing (keyspace starvation)", r.Shards, s)
			}
		}
		if r.Shards > 1 && r.FairnessJain < 0.5 {
			t.Errorf("shards=%d: Jain fairness %.3f, want a reasonably even spread", r.Shards, r.FairnessJain)
		}
		if r.Check == nil {
			t.Fatalf("shards=%d: missing check report", r.Shards)
		}
		if v := r.Check.Violations(); v > 0 {
			t.Errorf("shards=%d: %d consistency violations in checked population", r.Shards, v)
		}
		if r.Check.Ops == 0 {
			t.Errorf("shards=%d: checked population recorded no ops", r.Shards)
		}
	}
}

// TestCapacityReplayByteIdentical re-runs the quick study on the same seed
// and demands byte-identical JSON: the whole 10^6-session machine —
// Poisson arrivals, admission gate, batched dispatch, cross-shard quorums
// — must be a pure function of the seed.
func TestCapacityReplayByteIdentical(t *testing.T) {
	run := func() []byte {
		js, err := marshalReport(Capacity(Config{Quick: true, Seed: 23}))
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("same-seed replay produced different capacity JSON bytes")
	}
}
