package causal

import (
	"context"
	"fmt"
	"sync"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// Client is a cache-equipped client of a causal store, pinned to a region.
type Client struct {
	store  *Store
	Region netsim.Region

	mu    sync.Mutex
	cache map[string]Entry
}

// NewClient creates a client in the given region with an empty cache.
func NewClient(store *Store, region netsim.Region) *Client {
	return &Client{store: store, Region: region, cache: map[string]Entry{}}
}

// Store returns the client's store.
func (c *Client) Store() *Store { return c.store }

// CacheGet returns the cached entry for key.
func (c *Client) CacheGet(key string) Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache[key]
}

// cacheMerge installs e if newer than the cached entry (coherence on reads
// and write-through on writes — the manual juggling Listing 1 does, hidden
// behind the binding as Listing 2 advocates).
func (c *Client) cacheMerge(key string, e Entry) {
	c.mu.Lock()
	if e.newer(c.cache[key]) {
		c.cache[key] = e
	}
	c.mu.Unlock()
}

// Binding adapts a Client to the Correctables binding API with three
// levels: cache, causal (nearest backup), strong (primary).
type Binding struct {
	client *Client
}

var _ binding.Binding = (*Binding)(nil)

// NewBinding wraps a client.
func NewBinding(client *Client) *Binding { return &Binding{client: client} }

// Client returns the underlying client.
func (b *Binding) Client() *Client { return b.client }

// ConsistencyLevels implements binding.Binding.
func (b *Binding) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelCache, core.LevelCausal, core.LevelStrong}
}

// Close implements binding.Binding.
func (b *Binding) Close() error { return nil }

// SubmitOperation implements binding.Binding. The client library bounds
// each invocation with the binding's DefaultOpTimeout (model time): an
// unreachable replica fails the Correctable with faults.ErrUnreachable
// (OnError) while already-delivered weaker views stand, and late views are
// refused by the closed Correctable — the per-store deadline plumbing that
// used to live here moved into the invoke pipeline.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	b.client.store.tr.Clock().Go(func() {
		switch o := op.(type) {
		case binding.Get:
			b.get(o, levels, cb)
		case binding.Put:
			b.put(o, levels, cb)
		default:
			cb(binding.Result{Err: fmt.Errorf("%w: causal store has no %q", binding.ErrUnsupportedOperation, op.OpName())})
		}
	})
}

// Scheduler implements binding.SchedulerProvider: Correctables over this
// binding block through the store's simulation clock.
func (b *Binding) Scheduler() core.Scheduler {
	return binding.SchedulerFor(b.client.store.tr.Clock())
}

// Versions implements binding.Versioner: views carry the store's
// primary-issued entry versions as tokens.
func (b *Binding) Versions() bool { return true }

// DefaultOpTimeout implements binding.TimeoutProvider: under fault
// injection each invocation is bounded by the store's OpTimeout of model
// time.
func (b *Binding) DefaultOpTimeout() time.Duration {
	st := b.client.store
	if st.tr.Interceptor() == nil {
		return 0
	}
	return st.cfg.OpTimeout
}

// get fans one logical access out to up to three actual requests (§4.4) and
// delivers their responses in level order. A cache miss simply skips the
// cache-level view.
func (b *Binding) get(op binding.Get, levels core.Levels, cb binding.Callback) {
	c := b.client
	strongest := levels.Strongest()
	emit := func(e Entry, level core.Level) {
		var val []byte
		if e.Exists {
			val = append([]byte(nil), e.Value...)
		}
		cb(binding.Result{Value: val, Level: level, Version: e.Ver})
	}

	// Launch the remote reads in parallel.
	clock := c.store.tr.Clock()
	var causalQ, strongQ *netsim.Queue
	if levels.Contains(core.LevelCausal) {
		causalQ = clock.NewQueue()
		clock.Go(func() {
			e := c.store.read(c.Region, c.store.nearestBackup(c.Region), op.Key)
			causalQ.Put(e)
		})
	}
	if levels.Contains(core.LevelStrong) {
		strongQ = clock.NewQueue()
		clock.Go(func() {
			e := c.store.read(c.Region, c.store.cfg.Primary, op.Key)
			c.cacheMerge(op.Key, e)
			strongQ.Put(e)
		})
	}

	// Deliver in level order: cache (immediately, if hit), causal, strong.
	if levels.Contains(core.LevelCache) {
		if e := c.CacheGet(op.Key); e.Exists {
			emit(e, core.LevelCache)
		} else if strongest == core.LevelCache {
			// Cache-only request with a miss: report absence.
			emit(Entry{}, core.LevelCache)
		}
	}
	if causalQ != nil {
		// The backup lags the primary by the propagation delay, so its raw
		// entry can be *older* than what this client has already observed —
		// through its cache (populated by earlier writes and strong reads)
		// or through the cache view delivered a moment ago. Serving that
		// stale entry would break the ladder's causal cut: each view must
		// refine, never regress, the ones before it. The causal view is
		// therefore the max of the backup's entry and the client's causal
		// past; the merged entry also refreshes the cache. The primary's
		// per-key version is always ≥ every backup's, so the strong view
		// still dominates.
		e := causalQ.Get().(Entry)
		c.cacheMerge(op.Key, e)
		if cached := c.CacheGet(op.Key); cached.newer(e) {
			e = cached
		}
		emit(e, core.LevelCausal)
	}
	if strongQ != nil {
		e := strongQ.Get().(Entry)
		c.cacheMerge(op.Key, e)
		emit(e, core.LevelStrong)
	}
}

// put writes through the primary and the local cache.
func (b *Binding) put(op binding.Put, levels core.Levels, cb binding.Callback) {
	c := b.client
	e := c.store.write(c.Region, op.Key, op.Value)
	c.cacheMerge(op.Key, e)
	cb(binding.Result{Value: nil, Level: levels.Strongest(), Version: e.Ver})
}
