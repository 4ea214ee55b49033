package cassandra

import (
	"fmt"
	"hash/fnv"
	randv2 "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/binding"
	"correctables/internal/netsim"
	"correctables/internal/ring"
	"correctables/internal/trace"
)

// Config describes a simulated Cassandra cluster.
type Config struct {
	// Regions places one replica per region per shard; len(Regions) is the
	// replication factor (the paper uses 3).
	Regions []netsim.Region
	// Transport carries all messages (required).
	Transport *netsim.Transport

	// Shards partitions the token space over a consistent-hash ring
	// (internal/ring): each shard owns a slice of the keyspace and gets its
	// own replica per region, so the replication factor and quorum geometry
	// are unchanged while aggregate capacity scales with Shards. Default 1
	// — the unsharded cluster the paper's figures run on.
	Shards int

	// Correctable enables the CC server-side modification: the coordinator
	// leaks a preliminary response after its local read, before gathering a
	// quorum (§5.2).
	Correctable bool
	// ConfirmationOpt enables the *CC optimization: when the final view
	// coincides with the preliminary, only a small confirmation message is
	// sent (§6.2.1 "Bandwidth Overhead").
	ConfirmationOpt bool

	// Workers is the per-replica worker-slot count (default 4).
	Workers int
	// ReadServiceTime is the coordinator/replica local work per read
	// (default 2ms model time).
	ReadServiceTime time.Duration
	// WriteServiceTime is the local work per write (default 2ms).
	WriteServiceTime time.Duration
	// FlushServiceTime is the extra coordinator work per preliminary flush
	// (default 500µs). This is what costs CC its few percent of throughput
	// (§6.2.1 "Performance Under Load").
	FlushServiceTime time.Duration
	// ReplicationDelay is the extra delay (beyond network latency) before an
	// asynchronous write propagation is applied on a peer replica,
	// modeling mutation batching and queueing. It governs the staleness
	// window and hence divergence (Fig 7). Default 10ms.
	ReplicationDelay time.Duration
	// ReadRepairChance is the probability that a quorum read pushes the
	// reconciled value to stale replicas (Cassandra's default is 0.1).
	ReadRepairChance float64

	// OpTimeout is the bound the client library puts on each invocation
	// through a Binding, in model time, while a fault interceptor is attached
	// to the Transport (default 5s): an operation a fault makes impossible —
	// severed quorum, crashed coordinator — fails with faults.ErrUnreachable
	// instead of hanging. Without an interceptor invocations are unbounded;
	// the Client's own Read and Write never have a deadline.
	OpTimeout time.Duration

	// Seed fixes the cluster RNG (read repair sampling).
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 1
	}
	if out.Workers == 0 {
		out.Workers = 4
	}
	if out.ReadServiceTime == 0 {
		out.ReadServiceTime = 2 * time.Millisecond
	}
	if out.WriteServiceTime == 0 {
		out.WriteServiceTime = 2 * time.Millisecond
	}
	if out.FlushServiceTime == 0 {
		out.FlushServiceTime = 500 * time.Microsecond
	}
	if out.ReplicationDelay == 0 {
		out.ReplicationDelay = 10 * time.Millisecond
	}
	if out.OpTimeout == 0 {
		out.OpTimeout = 5 * time.Second
	}
	return out
}

// Replica is one storage node: the replica of one shard in one region.
type Replica struct {
	Region netsim.Region
	// Shard is the token-ring shard this replica serves.
	Shard  int
	ID     uint8
	tab    *table
	server *netsim.Server
}

// Get returns the replica's local version for key (for tests/harness).
func (r *Replica) Get(key string) Versioned { return r.tab.get(key) }

// Server exposes the replica's bounded-capacity server. Admission
// controllers sample its QueueDelay as the coordinator backpressure signal.
func (r *Replica) Server() *netsim.Server { return r.server }

// routeServiceTime is the contact node's work to look up the ring and
// forward a request whose key belongs to another shard's coordinator.
// Token-aware clients skip this hop entirely.
const routeServiceTime = 250 * time.Microsecond

// readRepairShards spreads the read-repair RNG over independently locked
// PCG states (keyed by the read key) so concurrent clients don't serialize
// on one RNG lock.
const readRepairShards = 16

// Cluster is a set of replicas plus the shared transport. With Shards > 1
// the replicas form a grid: one replica per (shard, region), keys placed on
// shards by the consistent-hash token ring.
type Cluster struct {
	cfg Config
	tr  *netsim.Transport
	// replicas maps each region to its per-shard replicas (indexed by
	// shard). Slice layout keeps all iteration deterministic.
	replicas map[netsim.Region][]*Replica
	ring     *ring.Ring
	order    []netsim.Region
	// proximity caches, per coordinator region, every other replica region
	// sorted closest-first. Computed once at construction: the peer order
	// is needed on every read and write, and re-sorting per operation both
	// allocated and burned CPU on the hottest path.
	proximity map[netsim.Region][]netsim.Region
	ts        atomic.Uint64

	// hints is the hinted-handoff state (see hints.go); inert without a
	// fault interceptor.
	hints hintStore

	// trc, when set, records protocol-phase spans (flush, quorum wait,
	// repair, hint replay) on per-coordinator tracks; replica servers get
	// queue/service tracks of their own. Nil = tracing off.
	trc      *trace.Tracer
	phaseTrk map[netsim.Region]trace.Track

	repair [readRepairShards]struct {
		mu  sync.Mutex
		rng *randv2.Rand
	}

	// gathers recycles the peer-leg records of finished reads and writes.
	gathers netsim.FreeList[gather]
}

// gather is the record of one coordinated round — a quorum read's peer legs
// or a write's W-1 synchronous legs — in place of a closure per leg: the
// coordinator fills in what the round is about, starts the round trip of
// each slot it needs, and waits. A read leg leaves its reply in its own slot
// and puts the slot index on arrived, so no reply is boxed; a write leg
// counts down acks. The coordinator recycles the gather once every leg it
// started has reported, which is the last time any of them touches it; the
// next round gets the whole thing, queue and group included, empty again.
type gather struct {
	arrived *netsim.Queue // read legs report their slot here
	acks    *netsim.Group // write legs count down here
	legs    []peerLeg     // one slot per peer, in proximity order

	// What the round is about; the legs read it, only the coordinator
	// writes it, and only between rounds.
	c     *Client
	shard int
	key   string
	v     Versioned // the mutation the legs of a write carry
}

// peerLeg is one slot of a gather: the round trip to the slot's peer, a
// record and no actor (netsim.RoundTrip). What happens at the two ends
// depends on the round, so the slot is a netsim.Exchange under two names:
// readLeg and writeLeg.
type peerLeg struct {
	g       *gather
	slot    int
	replica *Replica  // the slot's peer for the round
	reply   Versioned // what a read leg brought back
	trip    netsim.RoundTrip
}

// start sends the round's request to the slot's replica: the slot-th closest
// peer of the coordinator, in the key's shard.
func (l *peerLeg) start(x netsim.Exchange, reqSize int, cost time.Duration) {
	g := l.g
	cl, coord := g.c.cluster, g.c.Coordinator
	peer := cl.othersByProximity(coord)[l.slot]
	l.replica = cl.ReplicaAt(g.shard, peer)
	l.trip.Start(cl.tr, coord, peer, netsim.LinkReplica, reqSize, l.replica.server, cost, x)
}

// readLeg is a peerLeg on a quorum read.
type readLeg peerLeg

func (l *peerLeg) read() {
	l.start((*readLeg)(l), replicaReadRequestSize(l.g.key), l.g.c.cluster.cfg.ReadServiceTime)
}

func (l *readLeg) Serve() int {
	l.reply = l.replica.tab.get(l.g.key)
	return replicaReadResponseSize(l.reply.Value)
}

func (l *readLeg) Done() { l.g.arrived.Put(l.slot) }

// writeLeg is a peerLeg on a write's synchronous propagation.
type writeLeg peerLeg

func (l *peerLeg) write() {
	g := l.g
	l.start((*writeLeg)(l), replicationSize(g.key, g.v.Value), g.c.cluster.cfg.WriteServiceTime)
}

func (l *writeLeg) Serve() int {
	l.replica.tab.apply(l.g.key, l.g.v)
	return WriteAckSize
}

func (l *writeLeg) Done() { l.g.acks.Done() }

// getGather takes a gather for one round of client c on key.
func (c *Cluster) getGather(client *Client, shard int, key string) *gather {
	g := c.gathers.Take()
	if g == nil {
		clock := c.tr.Clock()
		g = &gather{arrived: clock.NewQueue(), acks: clock.NewGroup(), legs: make([]peerLeg, len(c.order)-1)}
		for i := range g.legs {
			g.legs[i].g, g.legs[i].slot = g, i
		}
	}
	g.c, g.shard, g.key = client, shard, key
	return g
}

// putGather recycles g once every leg of its round has reported, cleared of
// the round's references.
func (c *Cluster) putGather(g *gather) {
	for i := range g.legs {
		g.legs[i].reply = Versioned{}
	}
	g.c, g.key, g.v = nil, "", Versioned{}
	c.gathers.Put(g)
}

// NewCluster builds a cluster per cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cassandra: Config.Transport is required")
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("cassandra: at least one replica region is required")
	}
	c := &Cluster{
		cfg:      cfg,
		tr:       cfg.Transport,
		replicas: make(map[netsim.Region][]*Replica, len(cfg.Regions)),
		ring:     ring.New(ring.Config{Shards: cfg.Shards, Seed: cfg.Seed}),
	}
	for i := range c.repair {
		c.repair[i].rng = randv2.New(randv2.NewPCG(uint64(cfg.Seed+7), uint64(i)))
	}
	for i, region := range cfg.Regions {
		if _, dup := c.replicas[region]; dup {
			return nil, fmt.Errorf("cassandra: duplicate replica region %s", region)
		}
		reps := make([]*Replica, cfg.Shards)
		for sh := range reps {
			reps[sh] = &Replica{
				Region: region,
				Shard:  sh,
				ID:     uint8(i),
				tab:    newTable(),
				server: netsim.NewServer(cfg.Transport.Clock(), cfg.Workers),
			}
		}
		c.replicas[region] = reps
		c.order = append(c.order, region)
	}
	c.proximity = make(map[netsim.Region][]netsim.Region, len(c.order))
	for _, from := range c.order {
		others := make([]netsim.Region, 0, len(c.order)-1)
		for _, r := range c.order {
			if r != from {
				others = append(others, r)
			}
		}
		c.proximity[from] = c.tr.Model().SortByProximity(from, others)
	}
	c.wireHints()
	return c, nil
}

// SetTrace threads a span tracer through the cluster: each replica's
// bounded server records queue/service spans on "server/<region>" (shard 0)
// or "server/<region>#<shard>", and the client protocol paths record phase
// spans (preliminary flush, quorum wait, read repair, shard routing, hint
// replay) on "cass/<region>" coordinator tracks. Install at
// wiring time, before traffic starts.
func (c *Cluster) SetTrace(t *trace.Tracer) {
	c.trc = t
	c.phaseTrk = make(map[netsim.Region]trace.Track, len(c.order))
	for _, region := range c.order {
		for sh, rep := range c.replicas[region] {
			name := "server/" + string(region)
			if sh > 0 {
				name = fmt.Sprintf("server/%s#%d", region, sh)
			}
			rep.server.SetTrace(t, name)
		}
		c.phaseTrk[region] = t.Track("cass/" + string(region))
	}
}

// Transport returns the cluster transport.
func (c *Cluster) Transport() *netsim.Transport { return c.tr }

// Replica returns the shard-0 replica in the given region — the contact
// node default clients connect to (and the whole region on an unsharded
// cluster). Admission controllers sample its queue delay as the
// backpressure signal.
func (c *Cluster) Replica(region netsim.Region) *Replica {
	return c.ReplicaAt(0, region)
}

// ReplicaAt returns the replica of the given shard in the given region.
func (c *Cluster) ReplicaAt(shard int, region netsim.Region) *Replica {
	reps, ok := c.replicas[region]
	if !ok {
		panic(fmt.Sprintf("cassandra: no replica in region %s", region))
	}
	if shard < 0 || shard >= len(reps) {
		panic(fmt.Sprintf("cassandra: no shard %d (have %d)", shard, len(reps)))
	}
	return reps[shard]
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// ShardOf returns the shard owning key per the token ring.
func (c *Cluster) ShardOf(key string) int {
	if c.cfg.Shards == 1 {
		return 0
	}
	return c.ring.ShardOf(key)
}

// Regions returns the replica regions in declaration order.
func (c *Cluster) Regions() []netsim.Region {
	return append([]netsim.Region(nil), c.order...)
}

// nextTS issues a cluster-wide monotonically increasing write timestamp.
// Real Cassandra uses client wall clocks; a logical counter gives the same
// last-write-wins semantics deterministically.
func (c *Cluster) nextTS() uint64 { return c.ts.Add(1) }

// rollReadRepair samples the read-repair decision from the key's RNG shard.
func (c *Cluster) rollReadRepair(key string) bool {
	if c.cfg.ReadRepairChance <= 0 {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	shard := &c.repair[h.Sum32()%readRepairShards]
	shard.mu.Lock()
	defer shard.mu.Unlock()
	return shard.rng.Float64() < c.cfg.ReadRepairChance
}

// othersByProximity returns all replica regions except `from`, closest
// first (quorum gathering order). The returned slice is the cached,
// construction-time copy: callers must treat it as read-only.
func (c *Cluster) othersByProximity(from netsim.Region) []netsim.Region {
	return c.proximity[from]
}

// NearestRemote returns the replica region closest to `from` that is not
// `from` itself; used to emulate the paper's "client connects to a remote
// replica" deployments (e.g. the IRL client contacting FRK).
func (c *Cluster) NearestRemote(from netsim.Region) netsim.Region {
	var best netsim.Region
	var bestRTT time.Duration
	for _, r := range c.order {
		if r == from {
			continue
		}
		rtt := c.tr.Model().RTT(from, r)
		if best == "" || rtt < bestRTT {
			best, bestRTT = r, rtt
		}
	}
	if best == "" {
		return from
	}
	return best
}

// Preload writes initial data directly into the key's owner-shard replicas
// (no traffic, no latency): the dataset-loading phase of an experiment.
func (c *Cluster) Preload(key string, value []byte) {
	v := Versioned{Value: binding.CopyIn(value), TS: c.nextTS(), Exists: true}
	sh := c.ShardOf(key)
	for _, region := range c.order {
		c.replicas[region][sh].tab.apply(key, v)
	}
}
