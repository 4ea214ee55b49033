package ring

import (
	"fmt"
	"testing"
)

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%07d", i)
	}
	return keys
}

// TestBalanceWithinTolerance: with 64 vnodes per shard, the per-shard share
// of a large uniform keyspace stays within a modest factor of the mean —
// the property that makes per-shard fairness in the capacity study a
// statement about load, not about hashing accidents.
func TestBalanceWithinTolerance(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, seed := range []int64{1, 42, 1234} {
			r := New(Config{Shards: shards, Seed: seed})
			counts := make([]int, shards)
			keys := sampleKeys(100_000)
			for _, k := range keys {
				counts[r.ShardOf(k)]++
			}
			mean := float64(len(keys)) / float64(shards)
			for s, c := range counts {
				ratio := float64(c) / mean
				if ratio < 0.55 || ratio > 1.55 {
					t.Errorf("shards=%d seed=%d: shard %d holds %.2fx the mean share (counts %v)",
						shards, seed, s, ratio, counts)
				}
			}
		}
	}
}

// TestMinimalMovementBetweenWidths: a ring one shard wider moves only the
// keys the new shard takes over — every moved key lands on the new shard,
// and the moved fraction is close to the new shard's fair share. This is
// what lets the capacity study's shard axis compare like with like.
func TestMinimalMovementBetweenWidths(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		r := New(Config{Shards: shards, Seed: 42})
		grown := New(Config{Shards: shards + 1, Seed: 42})
		newID := shards
		keys := sampleKeys(50_000)
		moved := 0
		for _, k := range keys {
			before, after := r.ShardOf(k), grown.ShardOf(k)
			if before == after {
				continue
			}
			moved++
			if after != newID {
				t.Fatalf("shards=%d: key %q moved %d -> %d, not to the new shard %d",
					shards, k, before, after, newID)
			}
		}
		share := float64(moved) / float64(len(keys))
		fair := 1 / float64(shards+1)
		if share < fair*0.5 || share > fair*1.7 {
			t.Errorf("shards=%d: %.3f of keys moved, fair share %.3f", shards, share, fair)
		}
	}
}

// TestPlacementDeterministicPerSeed: independently constructed rings with
// the same (seed, shards, vnodes) place every key identically (and report
// the same fingerprint); a different seed yields a different placement.
func TestPlacementDeterministicPerSeed(t *testing.T) {
	cfg := Config{Shards: 8, Seed: 42}
	a, b := New(cfg), New(cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same-seed fingerprints differ: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	keys := sampleKeys(20_000)
	for _, k := range keys {
		if a.ShardOf(k) != b.ShardOf(k) {
			t.Fatalf("same-seed rings disagree on %q", k)
		}
	}
	other := New(Config{Shards: 8, Seed: 43})
	if other.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced the same fingerprint")
	}
	diff := 0
	for _, k := range keys {
		if a.ShardOf(k) != other.ShardOf(k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical placement")
	}
}

// TestDefaultsAndSingleShard: the zero config is a 1-shard ring that owns
// everything — the configuration every pre-sharding experiment runs on.
func TestDefaultsAndSingleShard(t *testing.T) {
	r := New(Config{})
	for _, k := range sampleKeys(100) {
		if s := r.ShardOf(k); s != 0 {
			t.Fatalf("single-shard ring placed %q on shard %d", k, s)
		}
	}
}

func BenchmarkShardOf(b *testing.B) {
	r := New(Config{Shards: 8, Seed: 42})
	keys := sampleKeys(1024)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.ShardOf(keys[i&1023])
	}
	_ = sink
}
