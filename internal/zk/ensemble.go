package zk

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Config describes a simulated ZooKeeper ensemble.
type Config struct {
	// Regions places one server per region (the paper uses 3).
	Regions []netsim.Region
	// LeaderRegion selects the initial leader (must appear in Regions); with
	// elections on, leadership moves to whichever server wins one.
	LeaderRegion netsim.Region
	// Transport carries all messages (required).
	Transport *netsim.Transport
	// Correctable enables the CZK fast path: local simulation of operations
	// for preliminary responses and the server-side atomic dequeue.
	Correctable bool
	// Workers is the per-server worker-slot count (default 4).
	Workers int
	// ServiceTime is the per-message local processing cost (default 1ms).
	ServiceTime time.Duration
	// OpTimeout bounds each invocation through a Binding in model time while
	// a fault interceptor is attached to the Transport (default 5s); see
	// cassandra.Config.OpTimeout for the semantics.
	OpTimeout time.Duration
	// HeartbeatInterval is the leader heartbeat period when elections are
	// enabled (default 250ms). Followers treat a heartbeat gap longer than
	// their election timeout as a dead leader.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience before starting an
	// election (default 2s). Server i (in Regions order) waits
	// ElectionTimeout + i*ElectionTimeout/4 — a deterministic stagger that
	// replaces Raft's randomized timeouts, keeping elections seed-replayable.
	ElectionTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = time.Millisecond
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.ElectionTimeout == 0 {
		c.ElectionTimeout = 2 * time.Second
	}
	return c
}

// Server is one ensemble member.
type Server struct {
	Region   netsim.Region
	ensemble *Ensemble
	proc     *netsim.Server
	tree     *Tree

	// mu guards the state below; on the leader it also orders proposals,
	// each taking the zxid after lastApplied (the Zab total order).
	mu          sync.Mutex
	lastApplied uint64
	pending     map[uint64]Txn
	// waiters are the contact-side waits for a zxid to apply (awaitApplied),
	// sorted by zxid, ties in the order they began.
	waiters []applyWaiter

	// dataEpoch is the election epoch the applied state belongs to, and on
	// the leader the epoch its proposals commit under. Commits and snapshots
	// from older epochs — a deposed leader's stalled broadcast finally
	// arriving after a heal — are discarded.
	dataEpoch uint64
	// accepted is the follower's Zab accept log: every proposal acked since
	// the last epoch change, keyed by zxid. Vote grants piggyback the tail
	// of this log so an election winner can materialize every transaction a
	// majority accepted (not every client-acknowledged one: see accept).
	// Cleared when an epoch-advancing snapshot or election win supersedes
	// it; nil while elections are disabled.
	accepted map[uint64]acceptedTxn

	// election is the server's place in the leader election (election.go),
	// guarded by the ensemble's elector; without elections only its role,
	// set at construction, is used.
	election electState
}

// Tree exposes the server's local (committed) state for local reads and
// CZK simulations.
func (s *Server) Tree() *Tree { return s.tree }

// LastApplied returns the highest zxid applied locally.
func (s *Server) LastApplied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastApplied
}

// Ensemble is the replicated coordination service.
type Ensemble struct {
	cfg     Config
	tr      *netsim.Transport
	servers map[netsim.Region]*Server
	order   []netsim.Region

	// elect is the leader-election machinery; nil when elections are
	// disabled (no fault interceptor, or fewer than 3 servers).
	elect *elector
	inv   invState // the in-line invariants; empty in the default build

	// records and proposals recycle the records of finished operations and
	// propose rounds.
	records   netsim.FreeList[opRecord]
	proposals netsim.FreeList[proposal]

	// trc, when set, records proposal quorum waits on per-server tracks
	// and the election/resync timeline on "zk/election". Nil = off.
	trc      *trace.Tracer
	phaseTrk map[netsim.Region]trace.Track
	electTrk trace.Track
}

// NewEnsemble builds an ensemble per cfg.
func NewEnsemble(cfg Config) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, fmt.Errorf("zk: Config.Transport is required")
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("zk: at least one server region is required")
	}
	e := &Ensemble{
		cfg:     cfg,
		tr:      cfg.Transport,
		servers: make(map[netsim.Region]*Server, len(cfg.Regions)),
	}
	for _, region := range cfg.Regions {
		if _, dup := e.servers[region]; dup {
			return nil, fmt.Errorf("zk: duplicate server region %s", region)
		}
		e.servers[region] = &Server{
			Region:   region,
			ensemble: e,
			proc:     netsim.NewServer(cfg.Transport.Clock(), cfg.Workers),
			tree:     NewTree(),
			pending:  make(map[uint64]Txn),
		}
		e.order = append(e.order, region)
	}
	leader, ok := e.servers[cfg.LeaderRegion]
	if !ok {
		return nil, fmt.Errorf("zk: leader region %s not in ensemble", cfg.LeaderRegion)
	}
	leader.election.role = roleLeader
	// On a faulted transport, wire Zab-style recovery: after every fault
	// transition (a restart, a heal, an expiring drop rule), followers that
	// missed commits — a crashed server loses its in-flight commit stream,
	// a partitioned one has it severed — resync from the leader by state
	// transfer, like ZooKeeper's SNAP sync. With 3+ servers the ensemble
	// also runs leader elections (see election.go): a crashed or isolated
	// leader is replaced by a majority-elected one instead of wedging
	// finals until restart.
	if inj, ok := cfg.Transport.Interceptor().(*faults.Injector); ok {
		inj.Subscribe(func(faults.Transition) { e.resyncLagging(e.Leader()) })
		if len(cfg.Regions) >= 3 {
			e.elect = newElector(e, inj, leader)
		}
	}
	return e, nil
}

// resyncLagging ships a snapshot of leader to every follower whose applied
// state lags it — comparing (epoch, zxid) lexicographically, so a deposed
// leader whose tree diverged on phantom prep-applies is overwritten by the
// new epoch's state even when its zxid watermark ran ahead. It runs in clock
// callback context (fault transitions, election wins) and must not block:
// snapshots travel as asynchronous sends, which the transport drops if the
// follower is still unreachable — the next transition retries.
func (e *Ensemble) resyncLagging(leader *Server) {
	leaderEpoch, leaderZxid := leader.epochApplied()
	for _, region := range e.order {
		s := e.servers[region]
		if s == leader {
			continue
		}
		ep, zx := s.epochApplied()
		if ep > leaderEpoch || (ep == leaderEpoch && zx >= leaderZxid) {
			continue
		}
		// One snapshot per follower: Restore installs the node map without
		// copying, so recipients must not share one.
		snap, zxid, epoch, size := leader.snapshot()
		if e.trc != nil {
			e.trc.Instant(e.electTrk, "resync", string(region), e.tr.Clock().Now())
		}
		e.tr.Send(leader.Region, region, netsim.LinkReplica, size, func() {
			s.installSnapshot(snap, zxid, epoch)
		})
	}
}

// snapshot captures the server's tree, zxid and epoch atomically (mu
// serializes every mutation of the server's state, proposals included).
func (s *Server) snapshot() (map[string]*node, uint64, uint64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, size := s.tree.Snapshot()
	return snap, s.lastApplied, s.dataEpoch, size
}

// epochApplied returns the (dataEpoch, lastApplied) pair that orders
// replica states across elections.
func (s *Server) epochApplied() (uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataEpoch, s.lastApplied
}

// installSnapshot replaces the server's state with a leader snapshot taken
// at the given (epoch, zxid), then drains any buffered commits past it and
// releases the waiters the snapshot satisfies. Stale snapshots — at or
// below the server's own (epoch, zxid), compared lexicographically — are
// ignored. An epoch-advancing snapshot clears the buffered-commit and
// accept logs wholesale: their entries belong to a superseded leader's
// numbering and must not merge with the new epoch's commit stream.
func (s *Server) installSnapshot(nodes map[string]*node, zxid, epoch uint64) {
	s.mu.Lock()
	if epoch < s.dataEpoch || (epoch == s.dataEpoch && zxid <= s.lastApplied) {
		s.mu.Unlock()
		return
	}
	s.tree.Restore(nodes)
	if epoch > s.dataEpoch {
		s.dataEpoch = epoch
		s.pending = make(map[uint64]Txn)
		if s.accepted != nil {
			s.accepted = make(map[uint64]acceptedTxn)
		}
	}
	s.lastApplied = zxid
	for z := range s.pending {
		if z <= zxid {
			delete(s.pending, z)
		}
	}
	s.applyPendingLocked()
	s.mu.Unlock()
}

// accept records a proposal in the server's accept log (elections enabled
// only); called on the follower leg of a proposal before the ack travels back.
// The ack does not imply the record: a follower already holding a newer-epoch
// entry at the same zxid keeps that entry and acks all the same, which is how
// a deposed leader's commit can rest on acks no accept log remembers (ROADMAP
// item 2(a)).
func (s *Server) accept(zxid, epoch uint64, txn Txn) {
	s.mu.Lock()
	if s.accepted == nil {
		s.accepted = make(map[uint64]acceptedTxn)
	}
	if cur, ok := s.accepted[zxid]; !ok || epoch >= cur.Epoch {
		s.accepted[zxid] = acceptedTxn{Txn: txn, Epoch: epoch}
	}
	s.mu.Unlock()
}

// electInfo returns the server's vote-comparison key (dataEpoch, lastZxid)
// plus its applied watermark; lastZxid = max(applied, accepted) is Zab's
// "newest state seen" used to decide which candidate may lead.
func (s *Server) electInfo() (epoch, lastApplied, lastZxid uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lastZxid = s.lastApplied
	for z := range s.accepted {
		lastZxid = max(lastZxid, z)
	}
	return s.dataEpoch, s.lastApplied, lastZxid
}

// acceptedTail returns the accept-log entries above the given zxid, the
// payload a vote grant piggybacks to the candidate.
func (s *Server) acceptedTail(above uint64) map[uint64]acceptedTxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	var tail map[uint64]acceptedTxn
	for z, a := range s.accepted {
		if z > above {
			if tail == nil {
				tail = make(map[uint64]acceptedTxn)
			}
			tail[z] = a
		}
	}
	return tail
}

// applyPendingLocked drains buffered commits in strict zxid order (stopping
// at the first gap) and fires the waiters the new watermark satisfies, in
// zxid order. Callers hold s.mu.
func (s *Server) applyPendingLocked() {
	for {
		next, ok := s.pending[s.lastApplied+1]
		if !ok {
			break
		}
		delete(s.pending, s.lastApplied+1)
		next.Apply(s.tree)
		s.lastApplied++
	}
	s.ensemble.inv.checkApplied(s)
	n := 0
	for n < len(s.waiters) && s.waiters[n].zxid <= s.lastApplied {
		s.waiters[n].ev.Fire()
		n++
	}
	s.waiters = slices.Delete(s.waiters, 0, n)
}

// applyWaiter is one wait for a server to apply a zxid.
type applyWaiter struct {
	zxid uint64
	ev   *netsim.Event
}

// awaitApplied returns nil when the server has applied zxid, and otherwise
// an event that fires once it has; its one waiter releases it.
func (s *Server) awaitApplied(zxid uint64) *netsim.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastApplied >= zxid {
		return nil
	}
	ev := s.ensemble.tr.Clock().NewEvent()
	i := len(s.waiters)
	for i > 0 && s.waiters[i-1].zxid > zxid {
		i--
	}
	s.waiters = slices.Insert(s.waiters, i, applyWaiter{zxid: zxid, ev: ev})
	return ev
}

// SetTrace threads a span tracer through the ensemble: each server's
// bounded processor records queue/service spans on "server/<region>",
// proposals record their quorum wait on "zk/<leader region>", and
// elections/resyncs appear on a shared "zk/election" track. Install at
// wiring time.
func (e *Ensemble) SetTrace(t *trace.Tracer) {
	e.trc = t
	e.phaseTrk = make(map[netsim.Region]trace.Track, len(e.order))
	for _, region := range e.order {
		e.servers[region].proc.SetTrace(t, "server/"+string(region))
		e.phaseTrk[region] = t.Track("zk/" + string(region))
	}
	e.electTrk = t.Track("zk/election")
}

// CommitEpoch returns the epoch new proposals currently commit under: the
// current leader's own data epoch, which advances on every election win (a
// natural election-state gauge).
func (e *Ensemble) CommitEpoch() uint64 {
	epoch, _ := e.Leader().epochApplied()
	return epoch
}

// Config returns the effective configuration.
func (e *Ensemble) Config() Config { return e.cfg }

// Transport returns the ensemble transport.
func (e *Ensemble) Transport() *netsim.Transport { return e.tr }

// Server returns the server in the given region.
func (e *Ensemble) Server(region netsim.Region) *Server {
	s, ok := e.servers[region]
	if !ok {
		panic(fmt.Sprintf("zk: no server in region %s", region))
	}
	return s
}

// Leader returns the current leader: of the servers in the leader role (a
// deposed one keeps it until it hears its successor), the one with the
// newest election epoch. Callers that need a consistent view across several
// steps should read it once.
func (e *Ensemble) Leader() *Server {
	if el := e.elect; el != nil {
		el.mu.Lock()
		defer el.mu.Unlock()
	}
	return e.leaderLocked()
}

// leaderLocked is Leader for callers that hold the elector lock (or run
// without elections, when roles never change after construction).
func (e *Ensemble) leaderLocked() *Server {
	var leader *Server
	for _, region := range e.order {
		s := e.servers[region]
		if s.election.role == roleLeader && (leader == nil || s.election.epoch > leader.election.epoch) {
			leader = s
		}
	}
	return leader
}

// Elections returns the election log: one record per leader change, in
// order. Empty without elections (or before the first leader change).
func (e *Ensemble) Elections() []ElectionRecord {
	if e.elect == nil {
		return nil
	}
	e.elect.mu.Lock()
	defer e.elect.mu.Unlock()
	return append([]ElectionRecord(nil), e.elect.log...)
}

// quorum returns the ack count the leader needs from followers (majority
// minus the leader's own implicit ack).
func (e *Ensemble) quorum() int {
	return (len(e.order)/2 + 1) - 1
}

// Bootstrap applies a transaction directly to every server, bypassing the
// protocol and the meter: experiment setup (creating queue directories,
// preloading elements). It must only be called on a quiescent ensemble — it
// advances every server's applied watermark past the allocated zxid, so any
// commit still in flight below it would be discarded on arrival as a
// duplicate. A create's data enters the store here, so it is copied, once,
// for the servers to share.
func (e *Ensemble) Bootstrap(txn Txn) TxnResult {
	if c, ok := txn.(CreateTxn); ok && c.Data != nil {
		c.Data = binding.CopyIn(c.Data)
		txn = c
	}
	zxid := e.Leader().LastApplied() + 1
	var res TxnResult
	for _, region := range e.order {
		s := e.servers[region]
		r := txn.Apply(s.tree)
		s.mu.Lock()
		s.lastApplied = zxid
		e.inv.checkApplied(s)
		s.mu.Unlock()
		res = r
	}
	return res
}

// proposal is the record of one propose round, in place of an ack queue and
// a closure per follower per proposal: the leader fills in the round, starts
// every follower's leg, takes a majority of acks off the queue and sends the
// commits. The legs and the commits outlive the round — it ends on a
// majority, the stragglers and the commits still travel — so the record
// counts its holders, and whoever lets go last drains the acks nobody waited
// for and recycles it.
type proposal struct {
	e    *Ensemble
	acks *netsim.Queue
	legs []followerLeg // indexed like e.order; the leader's own stays idle

	leader      *Server
	txn         Txn
	zxid, epoch uint64
	need        int          // acks the round waits for
	refs        atomic.Int32 // started legs and commits in flight, plus the round itself
}

// followerLeg is one follower's slot of a proposal: proposal out, accept,
// ack back, as a round trip on a record and no actor (netsim.RoundTrip), and
// later the commit, whose delivery is a step bound once.
type followerLeg struct {
	p        *proposal
	follower *Server
	trip     netsim.RoundTrip
	commit   func() // l.committed
}

func (l *followerLeg) start() {
	p := l.p
	e := p.e
	l.trip.Start(e.tr, p.leader.Region, l.follower.Region, netsim.LinkReplica,
		proposalSize(p.txn), l.follower.proc, e.cfg.ServiceTime, l)
}

// Serve implements netsim.Exchange: the follower accepts and acks.
func (l *followerLeg) Serve() int {
	if p := l.p; p.e.elect != nil {
		l.follower.accept(p.zxid, p.epoch, p.txn)
	}
	return AckSize
}

// Done implements netsim.Exchange: the ack is back at the leader.
func (l *followerLeg) Done() {
	l.p.acks.Put(struct{}{})
	l.p.release()
}

// committed is the commit's arrival at the follower.
func (l *followerLeg) committed() {
	p := l.p
	l.follower.deliverCommit(p.zxid, p.epoch, p.txn)
	p.release()
}

func (e *Ensemble) getProposal() *proposal {
	p := e.proposals.Take()
	if p == nil {
		p = &proposal{e: e, acks: e.tr.Clock().NewQueue(), legs: make([]followerLeg, len(e.order))}
		for i, region := range e.order {
			l := &p.legs[i]
			l.p, l.follower = p, e.servers[region]
			l.commit = l.committed
		}
	}
	return p
}

// release lets go of the record on behalf of a finished leg or of the round
// itself. The last holder finds every ack put and a majority of them taken:
// it takes the rest, none of which can block, and recycles the record
// cleared of the round's references.
func (p *proposal) release() {
	if p.refs.Add(-1) != 0 {
		return
	}
	for i := len(p.e.order) - 1 - p.need; i > 0; i-- {
		p.acks.Get()
	}
	p.leader, p.txn = nil, nil
	p.e.proposals.Put(p)
}

// commit broadcasts the commit asynchronously to every follower but the
// contact, whose commit rides on its reply, and lets go of the record on
// behalf of the round. Each commit holds the record, whose zxid, epoch and
// transaction it carries, until it is delivered; one that does not leave
// lets go at once.
func (p *proposal) commit(contact *Server) {
	e := p.e
	for i, region := range e.order {
		if region == p.leader.Region || region == contact.Region {
			continue
		}
		p.refs.Add(1)
		if !e.tr.Send(p.leader.Region, region, netsim.LinkReplica, commitSize(p.txn), p.legs[i].commit) {
			p.release()
		}
	}
	p.release()
}

// forward runs a client request's transaction through the ordered-commit
// protocol from the contact (see opRecord.forward) and blocks until the
// contact has applied it, returning its zxid and result. It is the record's
// blocking caller; the vanilla queue recipes commit this way.
func (e *Ensemble) forward(contact *Server, txn Txn) (uint64, TxnResult) {
	r := e.getRecord()
	r.contact, r.txn = contact, txn
	r.finished = e.tr.Clock().NewEvent()
	r.forward()
	r.finished.Wait()
	r.finished.Release()
	if r.applied != nil {
		r.applied.Wait()
		r.applied.Release()
		r.applied = nil
	}
	zxid, res := r.zxid, r.res
	e.putRecord(r)
	return zxid, res
}

// prepare prep-applies txn on the leader's tree and numbers it from the
// leader's own watermark and epoch: the leader state is authoritative and
// strictly ordered. A fail-fast result is numbered 0.
func (s *Server) prepare(txn Txn) (uint64, uint64, TxnResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := txn.Apply(s.tree)
	if failsFast(res) {
		return 0, 0, res
	}
	s.lastApplied++
	s.ensemble.inv.checkApplied(s)
	return s.lastApplied, s.dataEpoch, res
}

// deliverCommit hands a committed transaction of the given epoch to a
// server, which applies committed transactions strictly in zxid order
// (buffering gaps). Commits at or below the applied watermark are
// discarded — after a snapshot resync the in-flight commit stream may replay
// transactions the snapshot already covers — and so are commits from epochs
// older than the server's applied state: a deposed leader's stalled
// broadcast draining after a heal must not merge into the new epoch's
// commit stream.
func (s *Server) deliverCommit(zxid, epoch uint64, txn Txn) {
	s.mu.Lock()
	if epoch >= s.dataEpoch && zxid > s.lastApplied {
		s.pending[zxid] = txn
		s.applyPendingLocked()
	}
	s.mu.Unlock()
}

// process charges one message's local work on the server.
func (s *Server) process() { s.proc.Process(s.ensemble.cfg.ServiceTime) }
