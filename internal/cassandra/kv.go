package cassandra

import (
	"context"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// KV is the typed application-facing facade of a cassandra binding: Get and
// Put return typed Correctables (Correctable[[]byte] / Correctable[Ack]),
// so applications never touch interface{} or type assertions.
type KV struct {
	client *binding.Client
}

// NewKV builds the typed facade over a binding (wrapping it in a Client
// configured with opts — observers, operation timeout, label).
func NewKV(b *Binding, opts ...binding.Option) *KV {
	return &KV{client: binding.NewClient(b, opts...)}
}

// Session opens a session over the facade's client: reads through it are
// guaranteed read-your-writes and monotonic reads per key (see
// binding.Session).
func (kv *KV) Session() *binding.Session {
	return binding.NewSession(kv.client)
}

// Get reads key with incremental consistency guarantees: one view per
// requested level (all offered levels when none are given), weakest first.
func (kv *KV) Get(ctx context.Context, key string, levels ...core.Level) *core.Correctable[[]byte] {
	return binding.Invoke[[]byte](ctx, kv.client, binding.Get{Key: key}, levels...)
}

// GetStrong reads key at the strongest offered level (single view).
func (kv *KV) GetStrong(ctx context.Context, key string) *core.Correctable[[]byte] {
	return binding.InvokeStrong[[]byte](ctx, kv.client, binding.Get{Key: key})
}

// Put writes key. The returned Correctable closes with an Ack once the
// write quorum acknowledged.
func (kv *KV) Put(ctx context.Context, key string, value []byte) *core.Correctable[binding.Ack] {
	return binding.InvokeStrong[binding.Ack](ctx, kv.client, binding.Put{Key: key, Value: value})
}
