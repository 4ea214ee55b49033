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
	// backup is the region the causal level reads: the closest backup.
	backup netsim.Region

	mu    sync.Mutex
	cache map[string]Entry
}

// NewClient creates a client in the given region with an empty cache.
func NewClient(store *Store, region netsim.Region) *Client {
	return &Client{store: store, Region: region, backup: store.nearestBackup(region), cache: map[string]Entry{}}
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
// levels: cache, causal (nearest backup), strong (primary). Views carry the
// store's primary-issued entry versions as version tokens.
type Binding struct {
	client *Client

	// free recycles the records of finished operations.
	free netsim.FreeList[opRecord]
}

// opRecord is the state of one SubmitOperation for the life of its protocol
// actor, in place of a closure per hop and a queue per remote read (the
// idiom of cassandra.Binding's record and gather): the actor body is a
// method bound once, when the record is built, and the two remote reads are
// legs of the record. The actor waits for every read it started before it
// ends, which is when it returns the record — queues empty again — and
// nothing else does.
type opRecord struct {
	b      *Binding
	op     binding.Operation
	levels core.Levels
	cb     binding.Callback

	key            string
	causal, strong remoteRead // the nearest backup's read and the primary's

	run func() // r.exec: the actor body
}

// remoteRead is one remote read of a get: the round trip to one replica, a
// record and no actor (netsim.RoundTrip). It leaves the entry in its own
// slot and signals its queue, so no entry is boxed.
type remoteRead struct {
	r       *opRecord
	replica *replica      // the replica the read goes to
	entry   Entry         // what it brought back
	arrived *netsim.Queue // signalled when the slot is filled
	trip    netsim.RoundTrip
}

func (l *remoteRead) start(region netsim.Region) {
	c := l.r.b.client
	st := c.store
	l.replica = st.replicas[region]
	l.trip.Start(st.tr, c.Region, region, netsim.LinkClient, 64+len(l.r.key), l.replica.proc, st.cfg.ServiceTime, l)
}

// Serve implements netsim.Exchange: the replica's read.
func (l *remoteRead) Serve() int {
	l.entry = l.replica.get(l.r.key)
	return 96 + len(l.entry.Value)
}

// Done implements netsim.Exchange: the entry is back at the client. What the
// primary says refreshes the cache on arrival, whichever view the ladder is
// at.
func (l *remoteRead) Done() {
	if l == &l.r.strong {
		l.r.b.client.cacheMerge(l.r.key, l.entry)
	}
	l.arrived.Put(nil)
}

func (b *Binding) getRecord() *opRecord {
	r := b.free.Take()
	if r == nil {
		clock := b.client.store.tr.Clock()
		r = &opRecord{b: b}
		r.causal = remoteRead{r: r, arrived: clock.NewQueue()}
		r.strong = remoteRead{r: r, arrived: clock.NewQueue()}
		r.run = r.exec
	}
	return r
}

// putRecord recycles r, cleared of the operation's references.
func (b *Binding) putRecord(r *opRecord) {
	r.op, r.levels, r.cb, r.key = nil, nil, nil, ""
	r.causal.entry, r.strong.entry = Entry{}, Entry{}
	b.free.Put(r)
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
// refused by the closed Correctable.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	r := b.getRecord()
	r.op, r.levels, r.cb = op, levels, cb
	b.client.store.tr.Clock().Go(r.run)
}

// exec is the operation's protocol actor.
func (r *opRecord) exec() {
	switch o := r.op.(type) {
	case binding.Get:
		r.key = o.Key
		r.get()
	case binding.Put:
		r.put(o)
	default:
		r.cb(binding.Result{Err: fmt.Errorf("%w: causal store has no %q", binding.ErrUnsupportedOperation, r.op.OpName())})
	}
	r.b.putRecord(r)
}

// Scheduler implements binding.SchedulerProvider: Correctables over this
// binding block through the store's simulation clock.
func (b *Binding) Scheduler() core.Scheduler {
	return binding.SchedulerFor(b.client.store.tr.Clock())
}

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
func (r *opRecord) get() {
	c := r.b.client
	key, levels := r.key, r.levels

	// Launch the remote reads in parallel.
	wantCausal, wantStrong := levels.Contains(core.LevelCausal), levels.Contains(core.LevelStrong)
	if wantCausal {
		r.causal.start(c.backup)
	}
	if wantStrong {
		r.strong.start(c.store.cfg.Primary)
	}

	// Deliver in level order: cache (immediately, if hit), causal, strong.
	if levels.Contains(core.LevelCache) {
		if e := c.CacheGet(key); e.Exists {
			r.emit(e, core.LevelCache)
		} else if levels.Strongest() == core.LevelCache {
			// Cache-only request with a miss: report absence.
			r.emit(Entry{}, core.LevelCache)
		}
	}
	if wantCausal {
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
		r.causal.arrived.Get()
		e := r.causal.entry
		c.cacheMerge(key, e)
		if cached := c.CacheGet(key); cached.newer(e) {
			e = cached
		}
		r.emit(e, core.LevelCausal)
	}
	if wantStrong {
		r.strong.arrived.Get()
		e := r.strong.entry
		c.cacheMerge(key, e)
		r.emit(e, core.LevelStrong)
	}
}

// emit delivers one view: the entry's value, shared (an absent entry has
// none), at the given level.
func (r *opRecord) emit(e Entry, level core.Level) {
	r.cb(binding.Result{Value: e.Value, Level: level, Version: e.Ver})
}

// put writes through the primary and the local cache.
func (r *opRecord) put(op binding.Put) {
	c := r.b.client
	e := c.store.write(c.Region, op.Key, op.Value)
	c.cacheMerge(op.Key, e)
	r.cb(binding.Result{Value: nil, Level: r.levels.Strongest(), Version: e.Ver})
}
