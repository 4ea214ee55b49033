// Package cassandra implements a quorum-replicated key-value store modeled
// on Cassandra, together with the paper's server-side ICG support
// ("Correctable Cassandra", §5.2): preliminary flushing at the coordinator
// and the confirmation optimization that replaces a redundant final response
// with a small confirmation message.
//
// The store reproduces the mechanics the paper's Figures 5-8 depend on:
//
//   - coordinator-based reads with configurable read quorum R (1, 2 or 3),
//   - last-write-wins reconciliation by timestamp,
//   - W=1 writes with asynchronous replication (the source of staleness and
//     hence preliminary/final divergence),
//   - per-replica bounded processing capacity (the source of the
//     latency/throughput saturation curves and of CC's throughput drop),
//   - explicit wire sizes on every message (the source of the bandwidth
//     figures).
package cassandra

import (
	"bytes"
	"sync"
)

// Versioned is a timestamped value; reconciliation is last-write-wins by
// (TS, NodeID). Its bytes are immutable once the Versioned exists:
// replicas, hints, repairs and read views all share the one buffer the
// write copied in (binding.CopyIn). The buffer is held boxed, as the
// binding.Result.Value every read view of it carries: the store boxes a
// value once, where its bytes enter (a write, Preload), and no view boxes
// it again. Bytes reads the buffer back.
type Versioned struct {
	wire   any // the value's []byte, boxed; nil if absent
	TS     uint64
	NodeID uint8
	Exists bool
}

// Bytes returns the value's bytes (nil if absent): the shared buffer,
// never to be modified.
func (v Versioned) Bytes() []byte {
	b, _ := v.wire.([]byte)
	return b
}

// Newer reports whether v is strictly newer than other.
func (v Versioned) Newer(other Versioned) bool {
	if !v.Exists {
		return false
	}
	if !other.Exists {
		return true
	}
	if v.TS != other.TS {
		return v.TS > other.TS
	}
	return v.NodeID > other.NodeID
}

// Same reports whether two versions are identical (same version and bytes).
func (v Versioned) Same(other Versioned) bool {
	return v.Exists == other.Exists && v.TS == other.TS && v.NodeID == other.NodeID &&
		bytes.Equal(v.Bytes(), other.Bytes())
}

// Token flattens the (TS, NodeID) version into the binding's per-object
// version-token space: tokens compare exactly like Newer, and 0 is
// reserved for absent values. Timestamps come from the cluster's shared
// counter, so the low byte never overflows into a neighboring timestamp.
func (v Versioned) Token() uint64 {
	if !v.Exists {
		return 0
	}
	return v.TS<<8 | uint64(v.NodeID)
}

// table is a concurrency-safe LWW register map: one partition of replica
// state.
type table struct {
	mu   sync.RWMutex
	data map[string]Versioned
}

func newTable() *table {
	return &table{data: make(map[string]Versioned)}
}

// get returns the stored version for key (Exists=false if absent).
func (t *table) get(key string) Versioned {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.data[key]
}

// apply merges v into the table if it is newer than the current version,
// reporting whether it was applied.
func (t *table) apply(key string, v Versioned) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.data[key]
	if v.Newer(cur) {
		t.data[key] = v
		return true
	}
	return false
}
