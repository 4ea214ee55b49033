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

// opRecord is one SubmitOperation in flight, a record and no actor, like
// cassandra's and zk's: a get's steps take the ready slots its actor's spawn
// and wakes took (Clock.Run), its two remote reads are round trips of the
// record, and a put is one round trip to the primary, served by
// Store.commit. The record goes back to the free list from its last step.
type opRecord struct {
	b      *Binding
	levels core.Levels
	cb     binding.Callback

	key            string
	causal, strong remoteRead // a get's: the nearest backup's read and the primary's

	value []byte           // a put's
	entry Entry            // what the put committed
	trip  netsim.RoundTrip // the put's, to the primary

	// A get's steps, bound once: its first turn, and its turn after a read
	// it waited for.
	begin, resume func()
}

// remoteRead is one remote read of a get: the round trip to one replica, a
// record and no actor (netsim.RoundTrip). It leaves the entry in its own
// slot, so no entry is boxed.
type remoteRead struct {
	r       *opRecord
	replica *replica // the replica the read goes to
	entry   Entry    // what it brought back
	pending bool     // started, and its view not delivered yet
	back    bool     // the entry is at the client
	trip    netsim.RoundTrip
}

func (l *remoteRead) start(region netsim.Region) {
	c := l.r.b.client
	st := c.store
	l.replica = st.replicas[region]
	l.pending = true
	l.trip.Start(st.tr, c.Region, region, netsim.LinkClient, 64+len(l.r.key), l.replica.proc, st.cfg.ServiceTime, l)
}

// Serve implements netsim.Exchange: the replica's read.
func (l *remoteRead) Serve() int {
	l.entry = l.replica.get(l.r.key)
	return 96 + len(l.entry.Value)
}

// Done implements netsim.Exchange: the entry is back at the client. What the
// primary says refreshes the cache on arrival, whichever view the ladder is
// at. The get waits for its reads in level order — for this one, unless it
// is the strong read and the causal view is still to come — and one waiting
// for this read takes its turn now, where its actor woke.
func (l *remoteRead) Done() {
	r := l.r
	if l == &r.strong {
		r.b.client.cacheMerge(r.key, l.entry)
	}
	l.back = true
	if l == &r.causal || !r.causal.pending {
		r.b.client.store.tr.Clock().Run(r.resume)
	}
}

func (b *Binding) getRecord() *opRecord {
	r := b.free.Take()
	if r == nil {
		r = &opRecord{b: b}
		r.causal.r, r.strong.r = r, r
		r.begin, r.resume = r.get, r.deliver
	}
	return r
}

// putRecord recycles r, cleared of the operation's references.
func (b *Binding) putRecord(r *opRecord) {
	r.levels, r.cb, r.key, r.value = nil, nil, "", nil
	r.entry, r.causal.entry, r.strong.entry = Entry{}, Entry{}, Entry{}
	r.causal.back, r.strong.back = false, false
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

// SubmitOperation implements binding.Binding. The client library bounds
// each invocation with the binding's DefaultOpTimeout (model time): an
// unreachable replica fails the Correctable with faults.ErrUnreachable
// (OnError) while already-delivered weaker views stand, and late views are
// refused by the closed Correctable.
func (b *Binding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	st := b.client.store
	r := b.getRecord()
	r.levels, r.cb = levels, cb
	switch o := op.(type) {
	case binding.Get:
		r.key = o.Key
		st.tr.Clock().Run(r.begin)
	case binding.Put:
		// The round trip's first step takes the ready slot of the submission.
		r.key, r.value = o.Key, o.Value
		r.trip.Start(st.tr, b.client.Region, st.cfg.Primary, netsim.LinkClient, 96+len(o.Key)+len(o.Value), st.replicas[st.cfg.Primary].proc, st.cfg.ServiceTime, r)
	default:
		b.putRecord(r)
		st.tr.Clock().Run(func() {
			cb(binding.Result{Err: fmt.Errorf("%w: causal store has no %q", binding.ErrUnsupportedOperation, op.OpName())})
		})
	}
}

// Scheduler implements binding.Binding: Correctables over this binding run
// on the store's simulation clock.
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

// get is a get's first step: it fans one logical access out to up to three
// actual requests (§4.4) and delivers the cache view, if it has one. A cache
// miss simply skips the cache-level view.
func (r *opRecord) get() {
	c := r.b.client
	// Launch the remote reads in parallel.
	if r.levels.Contains(core.LevelCausal) {
		r.causal.start(c.backup)
	}
	if r.levels.Contains(core.LevelStrong) {
		r.strong.start(c.store.cfg.Primary)
	}

	if r.levels.Contains(core.LevelCache) {
		if e := c.CacheGet(r.key); e.Exists {
			r.emit(e, core.LevelCache)
		} else if r.levels.Strongest() == core.LevelCache {
			// Cache-only request with a miss: report absence.
			r.emit(Entry{}, core.LevelCache)
		}
	}
	r.deliver()
}

// deliver delivers the remote views in level order, causal then strong. It
// returns to wait for a read that is not back yet, whose Done runs it again.
func (r *opRecord) deliver() {
	c := r.b.client
	for _, l := range [...]*remoteRead{&r.causal, &r.strong} {
		if !l.pending {
			continue
		}
		if !l.back {
			return
		}
		l.pending = false
		e, level := l.entry, core.LevelStrong
		c.cacheMerge(r.key, e)
		if l == &r.causal {
			// The backup lags the primary, so its entry can be older than
			// what this client has already seen through its cache (earlier
			// writes, strong reads, the cache view just delivered): serving
			// it would regress the ladder, whose views refine, never regress.
			// The causal view is the max of the two; the primary's per-key
			// version is ≥ every backup's, so the strong view dominates.
			level = core.LevelCausal
			if cached := c.CacheGet(r.key); cached.newer(e) {
				e = cached
			}
		}
		r.emit(e, level)
	}
	r.b.putRecord(r)
}

// emit delivers one view: the entry's value, shared (an absent entry has
// none), at the given level.
func (r *opRecord) emit(e Entry, level core.Level) {
	r.cb(binding.Result{Value: e.Value, Level: level, Version: e.Ver})
}

// Serve implements netsim.Exchange: the put's service at the primary.
func (r *opRecord) Serve() int {
	r.entry = r.b.client.store.commit(r.key, r.value)
	return 32
}

// Done implements netsim.Exchange: the put's acknowledgement is back; the
// write goes through the local cache.
func (r *opRecord) Done() {
	r.b.client.cacheMerge(r.key, r.entry)
	r.cb(binding.Result{Value: nil, Level: r.levels.Strongest(), Version: r.entry.Ver})
	r.b.putRecord(r)
}
