// Package causal implements the paper's third binding substrate (§5.2
// "Causal Consistency and Caching"): a primary/backup replicated store with
// causally ordered propagation, complemented by a client-side write-through
// cache. The binding exposes three incremental levels:
//
//	cache  — client-local cache hit (near-zero latency, possibly stale)
//	causal — the closest backup replica's causally consistent state
//	strong — the primary replica (most up-to-date)
//
// This is the substrate behind the smartphone news reader of §4.4
// (Listing 6): one logical invoke translates to three actual requests whose
// responses refresh the display incrementally.
package causal

import (
	"fmt"
	"sync"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Entry is a versioned value. Value is immutable once the entry exists
// (replicas replace entries, they never write into one) and is shared by
// every holder: retain freely, never modify.
type Entry struct {
	Value  []byte
	Ver    uint64
	Exists bool
}

// newer reports whether e supersedes other.
func (e Entry) newer(other Entry) bool {
	if !e.Exists {
		return false
	}
	return !other.Exists || e.Ver > other.Ver
}

// Config describes a primary/backup store.
type Config struct {
	// Primary hosts the authoritative replica.
	Primary netsim.Region
	// Backups host causally consistent replicas, updated asynchronously in
	// version order.
	Backups []netsim.Region
	// Transport carries all messages (required).
	Transport *netsim.Transport
	// ServiceTime is the per-request processing cost (default 500µs).
	ServiceTime time.Duration
	// PropagationDelay is the extra delay before a write reaches backups
	// (default 15ms) — the causal staleness window.
	PropagationDelay time.Duration
	// OpTimeout bounds each binding operation in model time when a fault
	// interceptor is attached to the Transport (default 5s); see
	// cassandra.Config.OpTimeout for the semantics.
	OpTimeout time.Duration
}

// Store is the replicated store.
type Store struct {
	cfg      Config
	tr       *netsim.Transport
	mu       sync.Mutex
	nextVer  uint64
	replicas map[netsim.Region]*replica

	// trc, when set, records replica queue/service spans and resync
	// instants. Nil = tracing off.
	trc *trace.Tracer
	trk trace.Track
}

type replica struct {
	region netsim.Region
	proc   *netsim.Server
	mu     sync.Mutex
	data   map[string]Entry
	// pending buffers out-of-order propagations so backups apply writes in
	// version order (causal ordering under a single primary).
	pending map[uint64]propagation
	applied uint64
}

type propagation struct {
	key   string
	entry Entry
}

// NewStore builds a store per cfg.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("causal: Config.Transport is required")
	}
	if cfg.Primary == "" {
		return nil, fmt.Errorf("causal: Config.Primary is required")
	}
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 500 * time.Microsecond
	}
	if cfg.PropagationDelay == 0 {
		cfg.PropagationDelay = 15 * time.Millisecond
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	s := &Store{cfg: cfg, tr: cfg.Transport, replicas: map[netsim.Region]*replica{}}
	for _, region := range append([]netsim.Region{cfg.Primary}, cfg.Backups...) {
		if _, dup := s.replicas[region]; dup {
			return nil, fmt.Errorf("causal: duplicate region %s", region)
		}
		s.replicas[region] = &replica{
			region:  region,
			proc:    netsim.NewServer(cfg.Transport.Clock(), 4),
			data:    map[string]Entry{},
			pending: map[uint64]propagation{},
		}
	}
	// On a faulted transport, wire recovery: after every fault transition,
	// backups whose applied version lags the primary — propagations to a
	// crashed or partitioned backup are dropped in flight, leaving a
	// version gap the in-order delivery buffer can never fill — resync from
	// the primary by state transfer.
	if inj, ok := cfg.Transport.Interceptor().(*faults.Injector); ok {
		inj.Subscribe(func(faults.Transition) { s.resyncLagging() })
	}
	return s, nil
}

// SetTrace threads a span tracer through the store: each replica's
// bounded server records queue/service spans on "server/<region>", and
// recovery resyncs appear as instants on "causal/recovery". Install at
// wiring time.
func (s *Store) SetTrace(t *trace.Tracer) {
	s.trc = t
	for _, region := range append([]netsim.Region{s.cfg.Primary}, s.cfg.Backups...) {
		s.replicas[region].proc.SetTrace(t, "server/"+string(region))
	}
	s.trk = t.Track("causal/recovery")
}

// resyncLagging ships a primary snapshot to every lagging backup. It runs
// in clock callback context and must not block; snapshots travel as
// asynchronous sends, dropped (and retried at the next transition) while
// the backup is still unreachable.
func (s *Store) resyncLagging() {
	primary := s.replicas[s.cfg.Primary]
	snapData, snapVer, size := primary.snapshot()
	for _, region := range s.cfg.Backups {
		r := s.replicas[region]
		r.mu.Lock()
		lagging := r.applied < snapVer
		r.mu.Unlock()
		if !lagging {
			continue
		}
		// Each backup gets its own copy of the snapshot map; the Entry
		// values inside are immutable once stored, so a shallow per-key
		// copy is safe to share.
		data := make(map[string]Entry, len(snapData))
		for k, v := range snapData {
			data[k] = v
		}
		if s.trc != nil {
			s.trc.Instant(s.trk, "resync", string(region), s.tr.Clock().Now())
		}
		s.tr.Send(s.cfg.Primary, region, netsim.LinkReplica, size, func() {
			r.install(data, snapVer)
		})
	}
}

// snapshot captures the replica's state: data map (entries are immutable),
// applied version, and approximate encoded size.
func (r *replica) snapshot() (map[string]Entry, uint64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data := make(map[string]Entry, len(r.data))
	size := 0
	for k, v := range r.data {
		data[k] = v
		size += len(k) + len(v.Value) + 16
	}
	return data, r.applied, size
}

// install replaces the replica's state with a snapshot taken at version
// ver, discards pending propagations the snapshot covers, and drains the
// rest in order. Stale snapshots are ignored.
func (r *replica) install(data map[string]Entry, ver uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ver <= r.applied {
		return
	}
	r.data = data
	r.applied = ver
	for v := range r.pending {
		if v <= ver {
			delete(r.pending, v)
		}
	}
	r.drainPendingLocked()
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Preload installs a value on every replica without traffic.
func (s *Store) Preload(key string, value []byte) {
	e := s.newEntry(value)
	for _, r := range s.replicas {
		r.mu.Lock()
		r.data[key] = e
		if e.Ver > r.applied {
			r.applied = e.Ver
		}
		r.mu.Unlock()
	}
}

// newEntry stamps value with the next primary version. This is where a
// caller's buffer enters the store: the entry holds the one copy, which the
// primary, every backup, snapshots, client caches and all views then share.
func (s *Store) newEntry(value []byte) Entry {
	s.mu.Lock()
	s.nextVer++
	e := Entry{Value: binding.CopyIn(value), Ver: s.nextVer, Exists: true}
	s.mu.Unlock()
	return e
}

// nearestBackup returns the backup region closest to from (or the primary
// if there are no backups). It sorts: clients ask once, when they are built.
func (s *Store) nearestBackup(from netsim.Region) netsim.Region {
	if len(s.cfg.Backups) == 0 {
		return s.cfg.Primary
	}
	sorted := s.tr.Model().SortByProximity(from, s.cfg.Backups)
	return sorted[0]
}

// get returns the replica's entry for key.
func (r *replica) get(key string) Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data[key]
}

// commit is a put's service at the primary: it applies the value there and
// propagates it to the backups in version order, returning the entry.
func (s *Store) commit(key string, value []byte) Entry {
	primary := s.replicas[s.cfg.Primary]
	e := s.newEntry(value)

	primary.mu.Lock()
	primary.data[key] = e
	primary.applied = e.Ver
	primary.mu.Unlock()

	for _, region := range s.cfg.Backups {
		backup := s.replicas[region]
		s.tr.SendAfter(s.cfg.PropagationDelay, s.cfg.Primary, region, netsim.LinkReplica,
			96+len(key)+len(value), func() {
				backup.deliver(e.Ver, key, e)
			})
	}
	return e
}

// deliver applies propagations in version order, buffering gaps. Versions
// at or below the applied watermark are discarded: after a snapshot resync
// the in-flight propagation stream may replay writes the snapshot covers.
func (r *replica) deliver(ver uint64, key string, e Entry) {
	r.mu.Lock()
	if ver <= r.applied {
		r.mu.Unlock()
		return
	}
	r.pending[ver] = propagation{key: key, entry: e}
	r.drainPendingLocked()
	r.mu.Unlock()
}

// drainPendingLocked applies buffered propagations in version order until
// the next gap. Callers hold r.mu.
func (r *replica) drainPendingLocked() {
	for {
		p, ok := r.pending[r.applied+1]
		if !ok {
			return
		}
		delete(r.pending, r.applied+1)
		if p.entry.newer(r.data[p.key]) {
			r.data[p.key] = p.entry
		}
		r.applied++
	}
}
