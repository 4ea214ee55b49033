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
	// LeaderRegion selects the initial leader (must appear in Regions);
	// leadership moves to whichever server wins an election.
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
	// HeartbeatInterval is the leader heartbeat period while a fault
	// interceptor is attached (default 250ms). Followers treat a heartbeat
	// gap longer than their election timeout as a dead leader.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience before starting an
	// election (default 2s). Server i (in Regions order) waits
	// ElectionTimeout + i*ElectionTimeout/4 — a deterministic stagger that
	// replaces Raft's randomized timeouts, keeping elections seed-replayable.
	// Like Raft's, it must exceed the round trip a server needs to reach a
	// majority: a voter whose patience runs out before the winner's first
	// heartbeat reaches it stands again, and leadership never settles.
	ElectionTimeout time.Duration
}

// RecoveryTimeouts is the recovery bound in election timeouts: once the
// last fault has healed for that long, one server leads, no server holds an
// epoch or a promise above its epoch, and every contact commits again.
const RecoveryTimeouts = 4

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
	// it.
	accepted map[uint64]acceptedTxn

	// election is the server's place in the leader election (election.go),
	// guarded by the ensemble's elector.
	election electState
}

// Tree exposes the server's local (committed) state for local reads and
// CZK simulations.
func (s *Server) Tree() *Tree { return s.tree }

// stamp is the version token of zxid in epoch, as ZooKeeper numbers its
// transactions: the epoch in the high 32 bits, so that tokens order states
// across elections, where a new epoch's zxids may run below a deposed
// leader's. Without an election the epoch is 0 and the token is the zxid.
func stamp(epoch, zxid uint64) uint64 { return epoch<<32 | zxid }

// version is the version token of the server's applied state.
func (s *Server) version() uint64 { return stamp(s.epochApplied()) }

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

	elect elector  // the leader election; its timers run only under faults
	inv   invState // the in-line invariants; empty in the default build

	// records, forwardMsgs and proposals recycle the records of finished
	// operations, forward attempts and propose rounds.
	records     netsim.FreeList[opRecord]
	forwardMsgs netsim.FreeList[forwardMsg]
	proposals   netsim.FreeList[proposal]

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
	for _, region := range e.order {
		e.servers[region].election.heard = leader
	}
	e.elect.e = e
	if inj, ok := cfg.Transport.Interceptor().(*faults.Injector); ok {
		e.elect.start(inj, leader)
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
			s.installSnapshot(leader, snap, zxid, epoch)
		})
	}
}

// snapshot captures the server's tree, zxid and epoch atomically (mu
// serializes every mutation of the server's state, proposals included).
func (s *Server) snapshot() (map[string]node, uint64, uint64, int) {
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

// installSnapshot replaces the server's state with a snapshot leader took
// at the given (epoch, zxid), then drains any buffered commits past it and
// releases the waiters the snapshot satisfies, and learns of leader as the
// leader of epoch. Stale snapshots — at or below the server's own (epoch,
// zxid), compared lexicographically — are ignored. An epoch-advancing
// snapshot clears the buffered-commit and accept logs wholesale: their
// entries belong to a superseded leader's numbering and must not merge with
// the new epoch's commit stream.
func (s *Server) installSnapshot(leader *Server, nodes map[string]node, zxid, epoch uint64) {
	s.mu.Lock()
	if epoch < s.dataEpoch || (epoch == s.dataEpoch && zxid <= s.lastApplied) {
		s.mu.Unlock()
		return
	}
	s.tree.Restore(nodes)
	advanced := epoch > s.dataEpoch
	s.dataEpoch, s.lastApplied = epoch, zxid
	if advanced {
		s.pending = make(map[uint64]Txn)
		s.clearAcceptedLocked()
	}
	for z := range s.pending {
		if z <= zxid {
			delete(s.pending, z)
		}
	}
	s.applyPendingLocked()
	s.mu.Unlock()
	el := &s.ensemble.elect
	el.mu.Lock()
	el.learn(s, leader, epoch)
	el.mu.Unlock()
}

// accept is a follower's answer to a proposal, given on the follower leg
// before the answer travels back: it acks a proposal by recording it in its
// accept log, and refuses one older than an epoch it has promised
// (electState.promised), than the epoch of its applied state, or than an
// entry it already accepted at the zxid — recording nothing. An ack
// therefore always leaves the entry behind, so a commit rests on a majority
// of accept logs.
func (s *Server) accept(zxid, epoch uint64, txn Txn) answer {
	el := &s.ensemble.elect
	el.mu.Lock()
	seen := s.election.promised
	el.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.accepted[zxid]; epoch < max(seen, s.dataEpoch) || ok && cur.Epoch > epoch {
		return refused
	}
	if s.accepted == nil {
		s.accepted = make(map[uint64]acceptedTxn)
	}
	s.accepted[zxid] = acceptedTxn{Txn: txn, Epoch: epoch}
	return acked
}

// clearAcceptedLocked empties the accept log of a server whose applied state
// has just moved to a newer epoch, once the in-line invariants have seen
// what it carries out of the old one. Callers hold s.mu.
func (s *Server) clearAcceptedLocked() {
	if s.accepted != nil {
		s.ensemble.inv.checkApplied(s)
		s.accepted = make(map[uint64]acceptedTxn)
	}
}

// leads reports whether s leads in its own epoch: it holds the leader role,
// and its applied state is of the epoch it won. It is the one test of
// leadership on the operation path: only such a server numbers and
// proposes, and only such servers resync the others.
func (s *Server) leads() bool {
	el := &s.ensemble.elect
	el.mu.Lock()
	defer el.mu.Unlock()
	return s.leadsLocked()
}

// leadsLocked is leads for callers that hold the elector lock.
func (s *Server) leadsLocked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.election.role == roleLeader && s.election.epoch == s.dataEpoch
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
// natural election-state gauge), or 0 while no server holds the leader role
// (one whose round a majority refused has stepped down).
func (e *Ensemble) CommitEpoch() uint64 {
	leader := e.Leader()
	if leader == nil {
		return 0
	}
	epoch, _ := leader.epochApplied()
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
// newest election epoch, or nil if none does. No server could read it: the
// operation path never does (each server acts on its own election state),
// only gauges (CommitEpoch), setup on a quiescent ensemble (Bootstrap) and
// tests.
func (e *Ensemble) Leader() *Server {
	e.elect.mu.Lock()
	defer e.elect.mu.Unlock()
	return e.leaderLocked()
}

// leaderLocked is Leader for callers that hold the elector lock. Besides
// Leader, only install's stale-win check reads it: a candidate whose late
// majority arrives after a newer epoch was won has heard nothing of that
// epoch, so no state of its own tells it the win is stale.
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
// order. Empty before the first leader change.
func (e *Ensemble) Elections() []ElectionRecord {
	e.elect.mu.Lock()
	defer e.elect.mu.Unlock()
	return append([]ElectionRecord(nil), e.elect.log...)
}

// PendingForwards returns the contact of every forward that has not landed
// (electState.forwards), one entry per forward, contacts in Regions order.
// A forward in flight is one of them until it reaches its target; one
// whose contact names no leader waits there, on no actor, until the
// contact hears of one. Once the faults are cleared and the clock drained
// there is none, unless a contact will never name a leader again: then
// Clock.Parked does not count the operation, and only this does.
func (e *Ensemble) PendingForwards() []netsim.Region {
	e.elect.mu.Lock()
	defer e.elect.mu.Unlock()
	var held []netsim.Region
	for _, r := range e.order {
		for range e.servers[r].election.forwards {
			held = append(held, r)
		}
	}
	return held
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
// every follower's leg, takes answers off the queue until the round is
// decided (tally) and, if it commits, sends the commits. The legs and the
// commits outlive the round — it ends on a majority, the stragglers and the
// commits still travel — so the record counts its holders, and whoever lets
// go last drains the answers nobody waited for and recycles it.
type proposal struct {
	e    *Ensemble
	acks *netsim.Queue // the followers' answers
	legs []followerLeg // indexed like e.order; the leader's own stays idle

	leader      *Server
	txn         Txn
	zxid, epoch uint64
	need        int          // acks the round waits for
	refs        atomic.Int32 // started legs and commits in flight, plus the round itself
	// What the round has taken off acks.
	taken, acked, refusals int

	// A leader's rounds stay on its list of rounds (electState.rounds)
	// until decided. Under faults they commit in zxid order — each was
	// numbered on the state of those before it — so a round a majority
	// acked waits on turn while an earlier round is undecided (waitTurn);
	// one that an earlier round's failure aborts fails too (abortFrom).
	turn    *netsim.Event
	aborted bool
	aborts  int // aborted answers put on acks: 0 or 1
}

// An answer is what a proposal's queue carries: a follower's ack or
// refusal (Server.accept), or the word that an earlier round failed.
type answer uint8

const (
	acked answer = iota
	refused
	aborted
)

// followerLeg is one follower's slot of a proposal: proposal out, accept,
// answer back, as a round trip on a record and no actor (netsim.RoundTrip),
// and later the commit, whose delivery is a step bound once.
type followerLeg struct {
	p        *proposal
	follower *Server
	trip     netsim.RoundTrip
	ans      answer
	commit   func() // l.committed
}

func (l *followerLeg) start() {
	p := l.p
	e := p.e
	l.trip.Start(e.tr, p.leader.Region, l.follower.Region, netsim.LinkReplica,
		proposalSize(p.txn), l.follower.proc, e.cfg.ServiceTime, l)
}

// Serve implements netsim.Exchange: the follower acks or refuses.
func (l *followerLeg) Serve() int {
	p := l.p
	l.ans = l.follower.accept(p.zxid, p.epoch, p.txn)
	return AckSize
}

// Done implements netsim.Exchange: the answer is back at the leader.
func (l *followerLeg) Done() {
	l.p.acks.Put(l.ans)
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

// open fills in a round of txn, numbered zxid in epoch at leader, starts
// every follower's leg and appends the round to the leader's rounds.
func (p *proposal) open(leader *Server, txn Txn, zxid, epoch uint64) {
	e := p.e
	p.leader, p.txn, p.zxid, p.epoch, p.need = leader, txn, zxid, epoch, e.quorum()
	p.refs.Store(int32(len(e.order))) // the followers' legs and this round
	for i, region := range e.order {
		if region != leader.Region {
			p.legs[i].start()
		}
	}
	e.elect.mu.Lock()
	leader.election.rounds = append(leader.election.rounds, p)
	e.elect.mu.Unlock()
}

// tally takes one answer off the round's queue and says whether the round
// is decided and, if so, whether a majority acked it: it is acked on need
// acks, and fails once so many followers refused that need acks cannot
// come, or when an earlier round failed. Followers that refuse have seen a
// newer epoch, so the round's owner steps its leader down
// (elector.stepDown) once the failure's reply is on its way. A deposed
// leader's round ends this way too, or commits on acks its followers gave
// before they promised a newer epoch — which carry it into that epoch.
func (p *proposal) tally(a answer) (decided, commits bool) {
	p.taken++
	switch a {
	case acked:
		p.acked++
		return p.acked == p.need, true
	case refused:
		p.refusals++
		return p.refusals > len(p.e.order)-1-p.need, false
	}
	return true, false
}

// waitTurn reports whether the round, which a majority acked, must wait for
// an earlier round of its leader; then turn fires once that one is decided
// (passTurn, abortFrom). Only a running elector makes a round wait: without
// faults no earlier round can fail, so each commits as soon as a majority
// acks it, and the fault-free figures (Fig 12's pins) rest on that.
func (p *proposal) waitTurn() bool {
	el := &p.e.elect
	if !el.running {
		return false
	}
	el.mu.Lock()
	defer el.mu.Unlock()
	if p.leader.election.rounds[0] == p {
		return false
	}
	p.turn = p.e.tr.Clock().NewEvent()
	return true
}

// leave takes the decided round out of its leader's rounds and returns the
// round after it.
func (p *proposal) leave() *proposal {
	el := &p.e.elect
	el.mu.Lock()
	defer el.mu.Unlock()
	st := &p.leader.election
	i := slices.Index(st.rounds, p)
	st.rounds = slices.Delete(st.rounds, i, i+1)
	if i == len(st.rounds) {
		return nil
	}
	return st.rounds[i]
}

// passTurn lets next, now its leader's first round, commit if it has been
// waiting its turn with a majority.
func passTurn(next *proposal) {
	if next != nil && next.turn != nil {
		next.turn.Fire()
	}
}

// abortFrom fails q and every round after it in its epoch: each was
// numbered on a state holding the round that failed. (A later epoch's
// rounds were numbered on the state the leader installed when it won it.)
func abortFrom(q *proposal) {
	if q == nil {
		return
	}
	el := &q.e.elect
	el.mu.Lock()
	defer el.mu.Unlock()
	rounds := q.leader.election.rounds
	for _, r := range rounds[slices.Index(rounds, q):] {
		if r.aborted || r.epoch != q.epoch {
			break
		}
		r.abort()
	}
}

// abort fails the round: one still taking answers takes an aborted one; one
// waiting its turn is woken to find itself aborted. Callers hold the
// elector lock.
func (q *proposal) abort() {
	if q.aborted {
		return
	}
	q.aborted = true
	if q.turn != nil {
		q.turn.Fire()
	} else {
		q.aborts++
		q.acks.Put(aborted)
	}
}

// release lets go of the record on behalf of a finished leg or of the round
// itself. The last holder finds every answer put and the round's taken: it
// takes the rest, none of which can block, and recycles the record cleared
// of the round's references.
func (p *proposal) release() {
	if p.refs.Add(-1) != 0 {
		return
	}
	for i := len(p.e.order) - 1 + p.aborts - p.taken; i > 0; i-- {
		p.acks.Get()
	}
	p.leader, p.txn = nil, nil
	p.taken, p.acked, p.refusals, p.aborted, p.aborts = 0, 0, 0, false, 0
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
