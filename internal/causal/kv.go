package causal

import (
	"context"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// KV is the typed application-facing facade of a causal-store binding:
// typed Correctable reads over the cache/causal/strong level ladder.
type KV struct {
	client *binding.Client
}

// NewKV builds the typed facade over a binding (wrapping it in a Client
// configured with opts — observers, operation timeout, label).
func NewKV(b *Binding, opts ...binding.Option) *KV {
	return &KV{client: binding.NewClient(b, opts...)}
}

// Get reads key with incremental consistency guarantees: cache view (on a
// hit), causal view from the nearest backup, strong view from the primary.
func (kv *KV) Get(ctx context.Context, key string, levels ...core.Level) *core.Correctable[[]byte] {
	return binding.Invoke[[]byte](ctx, kv.client, binding.Get{Key: key}, levels...)
}

// GetStrong reads key from the primary only (single view).
func (kv *KV) GetStrong(ctx context.Context, key string) *core.Correctable[[]byte] {
	return binding.InvokeStrong[[]byte](ctx, kv.client, binding.Get{Key: key})
}

// Put writes key through the primary with write-through cache coherence.
func (kv *KV) Put(ctx context.Context, key string, value []byte) *core.Correctable[binding.Ack] {
	return binding.InvokeStrong[binding.Ack](ctx, kv.client, binding.Put{Key: key, Value: value})
}
