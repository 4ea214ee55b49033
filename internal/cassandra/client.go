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
	// survives any later write of its key. It is Version.Bytes().
	Value []byte
	// Version identifies the value for divergence accounting; it holds the
	// value's box, which the binding hands on as binding.Result.Value.
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

	// free recycles the records of the client's own Read and Write calls.
	free netsim.FreeList[opRecord]
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

// checkQuorum rejects a read or write quorum the cluster cannot meet.
func (c *Client) checkQuorum(what string, q int) error {
	if q < 1 || q > len(c.cluster.order) {
		return fmt.Errorf("cassandra: %s quorum %d out of range [1,%d]", what, q, len(c.cluster.order))
	}
	return nil
}

// Read performs a read with the given read quorum size. If wantPrelim is
// true (and the cluster is Correctable), the coordinator leaks a
// preliminary view after its local read; onView is then called twice:
// preliminary (weak) first, final (strong) second. Otherwise onView is
// called once with the final view. Read blocks until the final view has
// been delivered. onView runs in callback context and must not block.
//
// Read is the bare protocol and has no deadline: every synchronous hop
// retransmits until the fault in its way heals, so a read a fault makes
// impossible blocks until then. The client library owns the operation
// deadline (binding.Client bounds each invocation through the Binding with
// Config.OpTimeout under fault injection); call Read directly only where
// nothing can stall it. A fault that destroys only the preliminary flush
// costs the read that view and nothing else: onView is then called once,
// with the final view, as soon as it arrives.
//
// The read runs as a record (see opRecord); Read starts it on the caller's
// stack and waits for it to finish.
func (c *Client) Read(key string, quorum int, wantPrelim bool, onView func(ReadView)) error {
	if err := c.checkQuorum("read", quorum); err != nil {
		return err
	}
	r := c.record()
	r.setRead(key, quorum, wantPrelim)
	r.onView = onView
	c.run(r)
	return nil
}

// Write performs a write with write quorum w (the paper's evaluation uses
// W=1 throughout). The coordinator applies the mutation locally,
// acknowledges once w replicas (itself included) have applied it, and
// propagates to the remaining replicas asynchronously with the configured
// replication delay — the staleness window behind Fig 7's divergence.
// Write blocks until the acknowledgment reaches the client. Like Read it is
// the bare protocol, run as a record: the client library owns the operation
// deadline.
func (c *Client) Write(key string, value []byte, w int) error {
	if err := c.checkQuorum("write", w); err != nil {
		return err
	}
	r := c.record()
	r.setWrite(key, value, w)
	c.run(r)
	return nil
}

// record takes a record for one of the client's own calls.
func (c *Client) record() *opRecord {
	if r := c.free.Take(); r != nil {
		return r
	}
	return newRecord(c)
}

// run plays r from the caller's stack — its first step is the caller's, as
// in a straight-line protocol — and blocks until it has finished, then
// recycles it.
func (c *Client) run(r *opRecord) {
	r.finished = c.cluster.tr.Clock().NewEvent()
	r.state = opBegin
	r.advance()
	r.finished.Wait()
	r.finished.Release()
	r.clear()
	c.free.Put(r)
}

// opRecord is one read or write in flight: the protocol of Client.Read and
// Client.Write as a record, in place of an actor that blocks five or six
// times. Its step is a continuation chain that takes exactly the slots the
// actor took — the ready slot of its spawn (Clock.Run), the timers of its
// hops and server slots (netsim.Hop, Clock.At), the waiter slots of its
// quorum wait (Queue.Then, Group.Then) and of the preliminary-ordering wait
// (Event.Then) — so no event moves, and no goroutine, spawn or token handoff
// is left. The steps are methods bound once, when the record is built; every
// later operation that takes it off a free list reuses them.
//
// A record goes back to its free list when its last step has run, and
// nothing else ever returns it: an invocation the client library timed out
// is abandoned, not recycled — its record runs on until the fault heals, its
// late views are refused by the closed Correctable, and only then does it go
// back.
type opRecord struct {
	c *Client
	b *Binding // the binding that submitted it; nil on a Client call

	// The binding's request.
	op     binding.Operation
	levels core.Levels
	cb     binding.Callback
	// A Client call's view sink, and the event its caller waits on.
	onView   func(ReadView)
	finished *netsim.Event

	// The operation.
	write      bool
	key        string
	value      []byte // a write's value, the caller's buffer
	quorum     int    // R or W
	wantPrelim bool

	// Where it is.
	state      opState
	shard      int
	coord      *Replica // the owner shard's coordinator
	hop        netsim.Hop
	local      Versioned // what the coordinator read, or the mutation it applied
	reconciled Versioned
	g          *gather
	need       int           // peer replies the read still waits for
	delivered  *netsim.Event // fired once the preliminary view is delivered
	left       bool          // the preliminary left (Transport.Send)
	sp         trace.SpanID  // the open phase span: route, read-quorum or write-sync
	flushSp    trace.SpanID  // the preliminary's prelim-flush span

	step  func()    // r.advance
	flush func()    // r.flushed: the preliminary's delivery
	reply func(any) // r.replied: a peer leg's report
}

// opState is what the record last waited for.
type opState uint8

const (
	opBegin    opState = iota // its first turn: send the request
	opRequest                 // the request is on the way to the contact
	opRouted                  // the contact has looked the key up: forward
	opForward                 // the forward is on the way to the owner coordinator
	opServed                  // the coordinator's local read or write is done
	opFlushed                 // the preliminary's flush work is done: send it
	opSynced                  // a write's synchronous legs have acknowledged
	opResponse                // the response is on the way to the client
	opOrdered                 // the preliminary view has been delivered
)

func newRecord(c *Client) *opRecord {
	r := &opRecord{c: c}
	r.step, r.flush, r.reply = r.advance, r.flushed, r.replied
	return r
}

// setRead makes r a read of key at quorum, which is in range.
func (r *opRecord) setRead(key string, quorum int, wantPrelim bool) {
	r.write, r.key, r.quorum = false, key, quorum
	r.wantPrelim = wantPrelim && r.c.cluster.cfg.Correctable && quorum > 1
}

// setWrite makes r a write of value to key at quorum w, which is in range.
func (r *opRecord) setWrite(key string, value []byte, w int) {
	r.write, r.key, r.value, r.quorum, r.wantPrelim = true, key, value, w, false
}

// clear drops the operation's references before r goes back.
func (r *opRecord) clear() {
	r.op, r.levels, r.cb, r.onView, r.finished = nil, nil, nil, nil, nil
	r.key, r.value, r.coord = "", nil, nil
	r.local, r.reconciled = Versioned{}, Versioned{}
}

// requestSize is the wire size of the operation's request.
func (r *opRecord) requestSize() int {
	if r.write {
		return writeRequestSize(r.key, r.value)
	}
	return readRequestSize(r.key)
}

// advance is the record's one step: it runs whenever what the operation last
// waited for — its turn, a hop, a server slot, its quorum, the preliminary —
// has come.
func (r *opRecord) advance() {
	c := r.c
	cl := c.cluster
	tr := cl.tr
	clock := tr.Clock()
	switch r.state {
	case opBegin:
		if r.b != nil && !r.decode() {
			r.b.putRecord(r)
			return
		}
		// Client -> coordinator request, routed to the key's owner shard. The
		// client always talks to its contact point (the coordinator region's
		// shard-0 replica); when the key belongs to another shard the contact
		// performs the routing hop — ring lookup service time plus an
		// intra-region forward — unless the client is token-aware and
		// addressed the owner directly.
		r.shard = cl.ShardOf(r.key)
		r.state = opRequest
		r.hop.Send(tr, c.Region, c.Coordinator, netsim.LinkClient, r.requestSize(), r.step)
	case opRequest:
		if !r.hop.Arrived() {
			return
		}
		r.coord = cl.replicas[c.Coordinator][r.shard]
		if r.shard == 0 || c.TokenAware {
			r.serve()
			return
		}
		if trc := cl.trc; trc != nil {
			r.sp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatRoute, "route", "", clock.Now())
		}
		r.state = opRouted
		clock.At(cl.replicas[c.Coordinator][0].server.Reserve(routeServiceTime), r.step)
	case opRouted:
		r.state = opForward
		r.hop.Send(tr, c.Coordinator, c.Coordinator, netsim.LinkReplica, r.requestSize(), r.step)
	case opForward:
		if !r.hop.Arrived() {
			return
		}
		r.endPhase()
		r.serve()
	case opServed:
		if r.write {
			r.replicate()
			return
		}
		r.local = r.coord.tab.get(r.key)
		r.reconciled = r.local
		if !r.wantPrelim {
			r.gather()
			return
		}
		// Preliminary flushing (§5.2): leak the local value to the client
		// before coordinating. The flush costs extra coordinator service time
		// and one client-link response message, delivered as a callback timer
		// (r.flushed). The flush span covers the extra coordinator work plus
		// the wire trip: it ends when the preliminary reaches the client.
		r.delivered = clock.NewEvent()
		if trc := cl.trc; trc != nil {
			r.flushSp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatFlush, "prelim-flush", r.key, clock.Now())
		}
		r.state = opFlushed
		clock.At(r.coord.server.Reserve(cl.cfg.FlushServiceTime), r.step)
	case opFlushed:
		// A fault may destroy the flush; the read then completes with its
		// final view alone.
		r.left = tr.Send(c.Coordinator, c.Region, netsim.LinkClient, readResponseSize(r.local.Bytes()), r.flush)
		r.gather()
	case opSynced:
		cl.putGather(r.g)
		r.g = nil
		r.endPhase()
		r.respond(WriteAckSize)
	case opResponse:
		if !r.hop.Arrived() {
			return
		}
		// Preserve view order even under jitter: the final waits for the
		// preliminary, but only if the preliminary left (Transport.Send).
		if r.delivered != nil && r.left {
			r.state = opOrdered
			r.delivered.Then(r.step)
			return
		}
		r.finish()
	case opOrdered:
		r.finish()
	}
}

// endPhase closes the open phase span.
func (r *opRecord) endPhase() {
	if r.sp != 0 {
		r.c.cluster.trc.End(r.sp, r.c.cluster.tr.Clock().Now())
		r.sp = 0
	}
}

// serve has the owner shard's coordinator do its local read or write.
func (r *opRecord) serve() {
	cfg := &r.c.cluster.cfg
	cost := cfg.ReadServiceTime
	if r.write {
		cost = cfg.WriteServiceTime
	}
	r.state = opServed
	r.c.cluster.tr.Clock().At(r.coord.server.Reserve(cost), r.step)
}

// flushed delivers the preliminary view: the flush's Send callback.
func (r *opRecord) flushed() {
	if r.flushSp != 0 {
		r.c.cluster.trc.End(r.flushSp, r.c.cluster.tr.Clock().Now())
		r.flushSp = 0
	}
	r.deliver(ReadView{Value: r.local.Bytes(), Version: r.local, Level: core.LevelWeak})
	r.delivered.Fire()
}

// gather starts a read's quorum round: the coordinator counts itself and
// waits for the quorum-1 closest peers.
func (r *opRecord) gather() {
	if r.quorum == 1 {
		r.respondRead()
		return
	}
	cl := r.c.cluster
	r.need = r.quorum - 1
	if trc := cl.trc; trc != nil {
		r.sp = trc.Begin(cl.phaseTrk[r.c.Coordinator], trace.CatQuorum, "read-quorum", r.key, cl.tr.Clock().Now())
	}
	r.g = cl.getGather(r.c, r.shard, r.key)
	for i := range r.g.legs[:r.need] {
		r.g.legs[i].read()
	}
	r.g.arrived.Then(r.reply)
}

// replied takes one peer leg's reply, by the slot it reported.
func (r *opRecord) replied(slot any) {
	if v := r.g.legs[slot.(int)].reply; v.Newer(r.reconciled) {
		r.reconciled = v
	}
	if r.need--; r.need > 0 {
		r.g.arrived.Then(r.reply)
		return
	}
	c := r.c
	cl := c.cluster
	cl.putGather(r.g)
	r.g = nil
	r.endPhase()
	// Blocking read repair among the participants (Cassandra always
	// reconciles the replicas involved in the read): the coordinator already
	// holds the winning version, so its local copy is fixed immediately —
	// the first diverged read of a key heals subsequent preliminary views
	// until the next foreign write.
	if r.reconciled.Newer(r.local) {
		r.coord.tab.apply(r.key, r.reconciled)
	}
	// Global read repair: asynchronously push the winning version to all
	// replicas (sampled, like Cassandra's read_repair_chance).
	if cl.rollReadRepair(r.key) {
		if trc := cl.trc; trc != nil {
			trc.Instant(cl.phaseTrk[c.Coordinator], "read-repair", r.key, cl.tr.Clock().Now())
		}
		c.repairAsync(r.shard, r.key, r.reconciled)
	}
	r.respondRead()
}

// respondRead sends the final response. With the confirmation optimization,
// a final view that matches the preliminary shrinks to a confirmation
// message.
func (r *opRecord) respondRead() {
	size := readResponseSize(r.reconciled.Bytes())
	if r.wantPrelim && r.reconciled.Same(r.local) && r.c.cluster.cfg.ConfirmationOpt {
		size = ConfirmationSize
	}
	r.respond(size)
}

// respond sends the operation's response to the client.
func (r *opRecord) respond(size int) {
	c := r.c
	r.state = opResponse
	r.hop.Send(c.cluster.tr, c.Coordinator, c.Region, netsim.LinkClient, size, r.step)
}

// replicate is a write's work at the coordinator: apply the mutation, send
// it to the W-1 closest peers synchronously and to the rest asynchronously.
func (r *opRecord) replicate() {
	c := r.c
	cl := c.cluster
	tr := cl.tr
	key := r.key
	v := Versioned{
		wire:   binding.CopyIn(r.value),
		TS:     cl.nextTS(),
		NodeID: r.coord.ID,
		Exists: true,
	}
	r.local = v
	r.coord.tab.apply(key, v)

	needSync := r.quorum - 1
	if trc := cl.trc; trc != nil && needSync > 0 {
		r.sp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatQuorum, "write-sync", key, tr.Clock().Now())
	}
	var g *gather // the W-1 synchronous legs; none at W=1
	if needSync > 0 {
		g = cl.getGather(c, r.shard, key)
		g.v = v
		g.acks.Add(needSync)
	}
	for i, peer := range cl.othersByProximity(c.Coordinator) {
		if i < needSync {
			// Synchronous propagation for the write quorum.
			g.legs[i].write()
		} else if cl.hintable(c.Coordinator, peer) {
			// The peer is down or severed: the async send would be lost in
			// flight. Buffer a hint instead and replay it on rejoin.
			cl.bufferHint(c.Coordinator, peer, r.shard, key, v)
		} else {
			// Asynchronous replication with batching delay: fire and forget,
			// it outlives the write and keeps a closure of its own.
			peerReplica := cl.ReplicaAt(r.shard, peer)
			tr.SendAfter(cl.cfg.ReplicationDelay, c.Coordinator, peer, netsim.LinkReplica,
				replicationSize(key, r.value), func() {
					peerReplica.tab.apply(key, v)
				})
		}
	}
	if g != nil {
		r.g = g
		r.state = opSynced
		g.acks.Then(r.step)
		return
	}
	r.respond(WriteAckSize)
}

// finish delivers a read's final view, or a write's acknowledgment, and ends
// the operation.
func (r *opRecord) finish() {
	if r.delivered != nil {
		r.delivered.Release()
		r.delivered = nil
	}
	if !r.write {
		final := ReadView{
			Value:   r.reconciled.Bytes(),
			Version: r.reconciled,
			Level:   core.LevelStrong,
			Final:   true,
		}
		if r.quorum == 1 {
			final.Level = core.LevelWeak
		}
		r.deliver(final)
	}
	if r.b == nil {
		r.finished.Fire()
		return
	}
	if r.write {
		r.acknowledge()
	}
	r.b.putRecord(r)
}

// deliver hands one read view to the operation's sink.
func (r *opRecord) deliver(v ReadView) {
	if r.b != nil {
		r.emit(v)
		return
	}
	r.onView(v)
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
			replicationSize(key, v.Bytes()), func() {
				replica.tab.apply(key, v)
			})
	}
}
