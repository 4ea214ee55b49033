package cassandra

import (
	"fmt"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// ReadView is one response to a read, as observed at the client.
type ReadView struct {
	// Value is the (possibly nil) value bytes: the replica's own buffer,
	// shared and immutable — retain freely, never modify. The table
	// replaces a Versioned, it never writes into one, so a retained view
	// survives any later write of its key.
	Value []byte
	// Version identifies the value for divergence accounting.
	Version Versioned
	// Level is LevelWeak for single-replica views, LevelStrong for
	// quorum-reconciled views.
	Level core.Level
	// Final marks the last view of this read.
	Final bool
}

// Client issues operations against a cluster from a given client region via
// a fixed coordinator (contact) replica, exactly like a storage driver
// pinned to a contact point. On a sharded cluster the contact is the
// shard-0 replica of the coordinator region: requests for keys owned by
// another shard pay a routing hop (ring lookup plus an intra-region
// forward) unless the client is TokenAware.
type Client struct {
	cluster     *Cluster
	Region      netsim.Region
	Coordinator netsim.Region
	// TokenAware clients maintain their own view of the token ring (like
	// Cassandra's token-aware drivers) and address the key's owner-shard
	// coordinator directly, skipping the contact node's routing hop.
	TokenAware bool
}

// NewClient creates a client in clientRegion contacting the coordinator
// replica in coordRegion.
func NewClient(cluster *Cluster, clientRegion, coordRegion netsim.Region) *Client {
	// Validate eagerly: panics here are configuration bugs.
	cluster.Replica(coordRegion)
	return &Client{cluster: cluster, Region: clientRegion, Coordinator: coordRegion}
}

// Cluster returns the client's cluster.
func (c *Client) Cluster() *Cluster { return c.cluster }

// route carries a request of the given wire size from the client to the
// coordinator replica serving shard, and returns that replica. The client
// always talks to its contact point (the coordinator region's shard-0
// replica); when the key belongs to another shard the contact performs the
// routing hop — ring lookup service time plus an intra-region forward —
// unless the client is token-aware and addressed the owner directly.
func (c *Client) route(shard, reqSize int) *Replica {
	cl := c.cluster
	tr := cl.tr
	tr.Travel(c.Region, c.Coordinator, netsim.LinkClient, reqSize)
	owner := cl.replicas[c.Coordinator][shard]
	if shard == 0 || c.TokenAware {
		return owner
	}
	contact := cl.replicas[c.Coordinator][0]
	var routeSp trace.SpanID
	if trc := cl.trc; trc != nil {
		routeSp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatRoute, "route", "", tr.Clock().Now())
	}
	contact.server.Process(routeServiceTime)
	tr.Travel(c.Coordinator, c.Coordinator, netsim.LinkReplica, reqSize)
	cl.trc.End(routeSp, tr.Clock().Now())
	return owner
}

// Read performs a read with the given read quorum size. If wantPrelim is
// true (and the cluster is Correctable), the coordinator leaks a
// preliminary view after its local read; onView is then called twice:
// preliminary (weak) first, final (strong) second. Otherwise onView is
// called once with the final view. Read blocks until the final view has
// been delivered.
//
// Read is the bare protocol and has no deadline: every synchronous hop
// retransmits until the fault in its way heals, so a read a fault makes
// impossible blocks until then. The client library owns the operation
// deadline (binding.Client bounds each invocation through the Binding with
// Config.OpTimeout under fault injection); call Read directly only where
// nothing can stall it. A fault that destroys only the preliminary flush
// costs the read that view and nothing else: onView is then called once,
// with the final view, as soon as it arrives.
func (c *Client) Read(key string, quorum int, wantPrelim bool, onView func(ReadView)) error {
	cfg := &c.cluster.cfg
	if quorum < 1 || quorum > len(c.cluster.order) {
		return fmt.Errorf("cassandra: read quorum %d out of range [1,%d]", quorum, len(c.cluster.order))
	}
	wantPrelim = wantPrelim && cfg.Correctable && quorum > 1

	tr := c.cluster.tr
	clock := tr.Clock()

	// Client -> coordinator request, routed to the key's owner shard.
	shard := c.cluster.ShardOf(key)
	coord := c.route(shard, readRequestSize(key))

	// Coordinator local read.
	coord.server.Process(cfg.ReadServiceTime)
	local := coord.tab.get(key)

	// Preliminary flushing (§5.2): leak the local value to the client before
	// coordinating. The flush costs extra coordinator service time and one
	// client-link response message, delivered as a callback timer — the
	// off-critical-path flush costs no goroutine. A fault may destroy it;
	// the read then completes with its final view alone (netsim.AwaitFlush).
	// prelimLeft is a variable of its own because the flush closure captures
	// prelimDelivered: clearing that instead would move it to the heap, one
	// allocation on every read, preliminary or not.
	var prelimDelivered *netsim.Event
	prelimLeft := false
	if wantPrelim {
		prelimDelivered = clock.NewEvent()
		// The flush span covers the extra coordinator work plus the wire
		// trip: it ends when the preliminary actually reaches the client.
		var flushSp trace.SpanID
		if trc := c.cluster.trc; trc != nil {
			flushSp = trc.Begin(c.cluster.phaseTrk[c.Coordinator], trace.CatFlush, "prelim-flush", key, clock.Now())
		}
		coord.server.Process(cfg.FlushServiceTime)
		prelim := local
		prelimLeft = tr.Send(c.Coordinator, c.Region, netsim.LinkClient, readResponseSize(prelim.Value), func() {
			c.cluster.trc.End(flushSp, clock.Now())
			onView(ReadView{
				Value:   prelim.Value,
				Version: prelim,
				Level:   core.LevelWeak,
				Final:   false,
			})
			prelimDelivered.Fire()
		})
	}

	// Quorum gathering: the coordinator counts itself and waits for the
	// quorum-1 closest peers.
	reconciled := local
	if quorum > 1 {
		need := quorum - 1
		var quorumSp trace.SpanID
		if trc := c.cluster.trc; trc != nil {
			quorumSp = trc.Begin(c.cluster.phaseTrk[c.Coordinator], trace.CatQuorum, "read-quorum", key, clock.Now())
		}
		g := c.cluster.getGather(c, shard, key)
		for i := range g.legs[:need] {
			g.legs[i].read()
		}
		for range need {
			if v := g.legs[g.arrived.Get().(int)].reply; v.Newer(reconciled) {
				reconciled = v
			}
		}
		c.cluster.putGather(g)
		c.cluster.trc.End(quorumSp, clock.Now())
		// Blocking read repair among the participants (Cassandra always
		// reconciles the replicas involved in the read): the coordinator
		// already holds the winning version, so its local copy is fixed
		// immediately — the first diverged read of a key heals subsequent
		// preliminary views until the next foreign write.
		if reconciled.Newer(local) {
			coord.tab.apply(key, reconciled)
		}
		// Global read repair: asynchronously push the winning version to
		// all replicas (sampled, like Cassandra's read_repair_chance).
		if c.cluster.rollReadRepair(key) {
			if trc := c.cluster.trc; trc != nil {
				trc.Instant(c.cluster.phaseTrk[c.Coordinator], "read-repair", key, clock.Now())
			}
			c.repairAsync(shard, key, reconciled)
		}
	}

	// Final response. With the confirmation optimization, a final view that
	// matches the preliminary shrinks to a confirmation message.
	confirmed := wantPrelim && reconciled.Same(local)
	respSize := readResponseSize(reconciled.Value)
	if confirmed && cfg.ConfirmationOpt {
		respSize = ConfirmationSize
	}
	final := ReadView{
		Value:   reconciled.Value,
		Version: reconciled,
		Level:   core.LevelStrong,
		Final:   true,
	}
	if quorum == 1 {
		final.Level = core.LevelWeak
	}
	tr.Travel(c.Coordinator, c.Region, netsim.LinkClient, respSize)
	netsim.AwaitFlush(prelimDelivered, prelimLeft) // preserve view order even under jitter
	onView(final)
	return nil
}

// repairAsync pushes the reconciled version to every replica of the key's
// shard that may be stale (fire and forget, off the critical path).
func (c *Client) repairAsync(shard int, key string, v Versioned) {
	for _, region := range c.cluster.order {
		replica := c.cluster.ReplicaAt(shard, region)
		if region == c.Coordinator {
			replica.tab.apply(key, v)
			continue
		}
		c.cluster.tr.Send(c.Coordinator, region, netsim.LinkReplica,
			replicationSize(key, v.Value), func() {
				replica.tab.apply(key, v)
			})
	}
}

// Write performs a write with write quorum w (the paper's evaluation uses
// W=1 throughout). The coordinator applies the mutation locally,
// acknowledges once w replicas (itself included) have applied it, and
// propagates to the remaining replicas asynchronously with the configured
// replication delay — the staleness window behind Fig 7's divergence.
// Write blocks until the acknowledgment reaches the client. Like Read it is
// the bare protocol: the client library owns the operation deadline.
func (c *Client) Write(key string, value []byte, w int) error {
	_, err := c.write(key, value, w)
	return err
}

// write is Write returning the committed version too (the binding stamps
// its token on the acknowledgment view).
func (c *Client) write(key string, value []byte, w int) (Versioned, error) {
	cfg := &c.cluster.cfg
	if w < 1 || w > len(c.cluster.order) {
		return Versioned{}, fmt.Errorf("cassandra: write quorum %d out of range [1,%d]", w, len(c.cluster.order))
	}
	tr := c.cluster.tr
	clock := tr.Clock()
	shard := c.cluster.ShardOf(key)
	coord := c.route(shard, writeRequestSize(key, value))
	coord.server.Process(cfg.WriteServiceTime)

	v := Versioned{
		Value:  binding.CopyIn(value),
		TS:     c.cluster.nextTS(),
		NodeID: coord.ID,
		Exists: true,
	}
	coord.tab.apply(key, v)

	peers := c.cluster.othersByProximity(c.Coordinator)
	needSync := w - 1
	var syncSp trace.SpanID
	if trc := c.cluster.trc; trc != nil && needSync > 0 {
		syncSp = trc.Begin(c.cluster.phaseTrk[c.Coordinator], trace.CatQuorum, "write-sync", key, clock.Now())
	}
	var g *gather // the W-1 synchronous legs; none at W=1
	if needSync > 0 {
		g = c.cluster.getGather(c, shard, key)
		g.v = v
		g.acks.Add(needSync)
	}
	for i, peer := range peers {
		if i < needSync {
			// Synchronous propagation for the write quorum.
			g.legs[i].write()
		} else if c.cluster.hintable(c.Coordinator, peer) {
			// The peer is down or severed: the async send would be lost in
			// flight. Buffer a hint instead and replay it on rejoin.
			c.cluster.bufferHint(c.Coordinator, peer, shard, key, v)
		} else {
			// Asynchronous replication with batching delay: fire and forget,
			// it outlives the write and keeps a closure of its own.
			peerReplica := c.cluster.ReplicaAt(shard, peer)
			tr.SendAfter(cfg.ReplicationDelay, c.Coordinator, peer, netsim.LinkReplica,
				replicationSize(key, value), func() {
					peerReplica.tab.apply(key, v)
				})
		}
	}
	if g != nil {
		g.acks.Wait()
		c.cluster.putGather(g)
	}
	c.cluster.trc.End(syncSp, clock.Now())
	tr.Travel(c.Coordinator, c.Region, netsim.LinkClient, WriteAckSize)
	return v, nil
}
