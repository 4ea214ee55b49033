package zk

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Leader election for the simulated ensemble — Zab-flavored Raft — as one
// explicit state machine per server, driven entirely by clock callbacks
// (RunAfter timer chains and transport Send deliveries) so elections
// interleave deterministically with traffic and replay byte for byte from a
// seed.
//
// The leader heartbeats every HeartbeatInterval. A voter grants at most one
// vote per epoch, and only to a candidate whose (dataEpoch, lastZxid) is at
// least its own — the newest-state rule that keeps client-acknowledged
// transactions on the winning side; the grant piggybacks the voter's
// accept-log tail and, as in Raft, restarts the voter's election timer. A
// voter that heard another leader, or granted a vote, within the lease (two
// heartbeat intervals) denies without adopting the candidate's epoch and
// flags the live leader: this pre-vote stops a healed minority server from
// deposing a healthy leader, and the candidate stands down and goes on
// hearing that leader: a follower hears any heartbeat it has not promised
// past, and a candidacy's own epoch promises nothing. A win takes a
// majority of servers, itself included, so at most one server wins an
// epoch.
//
// Convergence: a voter of a candidacy that lost may be left promising an
// epoch no leader holds, and then ignores the live leader's heartbeats and
// refuses its proposals. It answers those heartbeats (onStale), and the
// leader stands again above its epoch, so that within RecoveryTimeouts
// election timeouts of the last heal every server follows one leader.
//
// Each server also keeps the leader it has heard of (electState.heard):
// where it forwards requests as a contact. A heartbeat of a newer epoch, a
// win, or a snapshot from the leader of a newer epoch moves it, and re-sends
// the forwards the server keeps that have not landed; a leader that steps
// down names no leader until it hears one.
//
// After construction a role changes only in elector.become, along the moves
// of this table (legal); any other move panics. A retry in the same epoch is
// no move: it asks again, keeping the votes it holds. Follower has no hooks.
//
//	move    trigger                      exit action        enter action
//	F -> C  no heartbeat or grant for    -                  self-vote; open
//	        its timeout; epoch+1                            the election span
//	C -> C  timer after a live denial:   - (re-entry)       self-vote again
//	        epoch+1
//	C -> F  heartbeat of its epoch or    clear the denial   -
//	        newer; lease denial; vote    flag and tally,
//	        request of a newer epoch     close the span
//	C -> L  majority of votes            as C -> F, handing install the win,
//	                                     the tally on       or L -> F if stale
//	L -> F  heartbeat of a newer epoch;  -                  -
//	        stale win; a majority
//	        refused a round (stepDown)
//	L -> C  a server promised a newer    -                  as F -> C
//	        epoch (onStale); above it
//
// The timers run whenever a fault injector is attached (elector.start), as
// does the ensemble's one subscription to it, which reads every region's
// Down after each fault transition: a down server is suspended (no votes,
// beats, or candidacies); on restart it resumes in its role with a fresh
// grace period. The final Quiesce stops every timer chain so
// VirtualClock.Drain terminates. A fault-free ensemble arms no timer: its
// configured leader leads throughout.
//
// Heartbeats and votes are control-plane traffic: they ride the transport
// (so partitions and crashes apply to them) but charge no server worker
// time, keeping the data-plane service model unchanged.

// role is a server's place in the election state machine.
type role uint8

const (
	roleFollower role = iota
	roleCandidate
	roleLeader
)

func (r role) String() string {
	switch r {
	case roleFollower:
		return "follower"
	case roleCandidate:
		return "candidate"
	case roleLeader:
		return "leader"
	}
	return "unknown"
}

// legal is the move table: legal[from][to] says whether a server may move
// from one role to the other.
var legal = [3][3]bool{
	roleFollower:  {roleCandidate: true},
	roleCandidate: {roleFollower: true, roleCandidate: true, roleLeader: true},
	roleLeader:    {roleFollower: true, roleCandidate: true},
}

// ElectionRecord is one entry of the ensemble's election log.
type ElectionRecord struct {
	// Epoch the winner leads.
	Epoch uint64
	// Leader is the winning region.
	Leader netsim.Region
	// At is the model instant the win took effect.
	At time.Duration
}

// acceptedTxn is one accept-log entry: the proposal and the epoch it was
// ordered under (higher epochs win on zxid collisions after a rewind).
type acceptedTxn struct {
	Txn   Txn
	Epoch uint64
}

// electState is one server's election-protocol state, guarded by its
// ensemble's elector.mu.
type electState struct {
	role    role
	timeout time.Duration // the server's election timeout, fixed at construction
	epoch   uint64        // highest election epoch seen
	// promised is the newest epoch it has heard of from another server — a
	// heartbeat, a vote request it took up — or won: it refuses proposals
	// of older epochs (Server.accept). Its own candidacy's epoch does not
	// count: a candidate that loses has promised nothing, and one that wins
	// installs what it accepted meanwhile.
	promised uint64
	votedFor netsim.Region
	votedEp  uint64
	lastBeat time.Duration // last heartbeat heard or vote granted (or grace reset)
	// suspended mirrors the region's crash state (injector Down), read
	// after every fault transition.
	suspended bool
	// candidate bookkeeping
	voters  []netsim.Region // the servers whose votes it holds, itself first
	sawDeny bool            // a live peer denied (not lease-deny): bump epoch on retry
	tally   map[uint64]acceptedTxn
	// sp is the open election-window span (tracing only): candidacy start
	// to win or step-down.
	sp trace.SpanID

	// heard is the leader this server has heard of, in epoch heardEp: the
	// sender of its newest heartbeat, or itself after a win (at first, the
	// configured leader). As a contact it forwards there, and forwards
	// keeps what it sent that has not landed; learning a newer epoch
	// re-sends those (resendForwards).
	heard    *Server
	heardEp  uint64
	forwards []forwarder
	// rounds are the proposals this server, as leader, has not decided, in
	// zxid order.
	rounds []*proposal
}

// elector runs the election protocol for every server of one ensemble.
type elector struct {
	e       *Ensemble
	running bool // start has armed the timers, before the first operation

	mu sync.Mutex
	// quiescing is set by the final Quiesce, and stopped once a server
	// leads in its own epoch then (see start).
	quiescing, stopped bool
	log                []ElectionRecord
}

// start arms every server's election timer and the leader's heartbeats, and
// subscribes to inj's fault transitions. After each (a restart, a heal, an
// expiring drop rule), followers that missed commits — a crashed server
// loses its in-flight commit stream, a partitioned one has it severed —
// first resync by state transfer, like ZooKeeper's SNAP sync, from every
// server that leads in its own epoch: a deposed leader that has not heard
// its successor yet resyncs only servers behind it in (epoch, zxid), and its
// successor overwrites those.
func (el *elector) start(inj *faults.Injector, leader *Server) {
	e := el.e
	el.running = true
	for i, r := range e.order {
		s := e.servers[r]
		// A quarter-base stagger per position in Regions order, so ties
		// break by declaration order instead of randomness.
		s.election.timeout = e.cfg.ElectionTimeout + time.Duration(i)*e.cfg.ElectionTimeout/4
		s.election.suspended = inj.Down(r)
		el.armTimer(s, s.election.timeout)
	}
	inj.Subscribe(func(t faults.Transition) {
		for _, r := range e.order {
			if s := e.servers[r]; s.leads() {
				e.resyncLagging(s)
			}
		}
		for _, r := range e.order {
			el.setSuspended(e.servers[r], inj.Down(r))
		}
		if t.Quiesced() {
			// Armed timers fire once more, see stopped, and do not re-arm,
			// so Drain terminates. An ensemble no server leads — its leader
			// stepped down, and no candidacy has won yet — elects one
			// first, whose win resyncs the servers the faults left behind
			// (install); otherwise a contact waiting for a commit past a gap
			// would wait for good.
			el.mu.Lock()
			el.quiescing = true
			for _, r := range e.order {
				el.stopped = el.stopped || e.servers[r].leadsLocked()
			}
			el.mu.Unlock()
		}
	})
	el.runBeats(leader, 0)
}

// setSuspended brings s's suspension in line with its region's crash state.
// It is a no-op when the flag already matches, so only a real restart
// grants a fresh grace period.
func (el *elector) setSuspended(s *Server, down bool) {
	el.mu.Lock()
	if s.election.suspended == down {
		el.mu.Unlock()
		return
	}
	s.election.suspended = down
	if !down {
		// Fresh grace period on restart: hear the current leader (or time
		// out honestly) before judging it dead.
		s.election.lastBeat = el.e.tr.Clock().Now()
	}
	el.mu.Unlock()
}

// --- the state machine ----------------------------------------------------

// become moves s to role to: the one place a role changes after
// construction. It panics on a move the table does not list, runs the exit
// hook of the role left — unless the move re-enters the same role — and
// then the enter hook of the role taken. Callers hold el.mu.
func (el *elector) become(s *Server, to role, now time.Duration) {
	st := &s.election
	from := st.role
	if !legal[from][to] {
		panic(fmt.Sprintf("zk: %s cannot move from %s to %s", s.Region, from, to))
	}
	var tally map[uint64]acceptedTxn
	if from != to {
		tally = el.exit(s, now)
	}
	st.role = to
	el.enter(s, tally, now)
}

// exit is the hook of the role s is leaving. It returns what the role
// hands on: a candidacy's merged accept log, which a win installs.
func (el *elector) exit(s *Server, now time.Duration) map[uint64]acceptedTxn {
	st := &s.election
	switch st.role {
	case roleCandidate:
		tally := st.tally
		st.sawDeny, st.tally = false, nil
		if st.sp != 0 {
			el.e.trc.End(st.sp, now)
			st.sp = 0
		}
		return tally
	case roleLeader:
		// Nothing to undo: the heartbeat chain ends by reading the role, and
		// a round the deposed leader still waits on ends on its followers'
		// answers — refusals from those that promised the newer epoch
		// (proposal.tally) — which fail its operation, or is aborted by its
		// next win (install).
	}
	return nil
}

// enter is the hook of the role s has just taken; tally is what exit handed
// on.
func (el *elector) enter(s *Server, tally map[uint64]acceptedTxn, now time.Duration) {
	st := &s.election
	switch st.role {
	case roleCandidate:
		// The self-vote, with this server's own accept-log tail.
		st.votedFor, st.votedEp, st.voters, st.sawDeny = s.Region, st.epoch, append(st.voters[:0], s.Region), false
		_, applied, _ := s.electInfo()
		st.tally = s.acceptedTail(applied)
		if trc := el.e.trc; trc != nil && st.sp == 0 {
			st.sp = trc.Begin(el.e.electTrk, trace.CatElection, "election", string(s.Region), now)
		}
	case roleLeader:
		el.install(s, tally, now)
	}
}

// install puts a win into effect: materialize every transaction of the
// merged accept log — the voters' tails and its own accept log — above the
// applied watermark in zxid order, advance the data epoch its proposals
// commit under, start heartbeats, resync lagging followers by state
// transfer, and re-send the forwards it kept to itself. A zxid gap in the
// merged log means no majority accepted the missing proposal, so it was
// never client-acknowledged and is safe to lose, and neither was anything
// numbered after it (a leader's rounds commit in order). A win whose epoch a later
// election already passed — a candidate whose majority arrived late, which
// takes five or more servers — is stale: that later winner still leads, in
// a newer epoch, and the server follows instead. Callers hold el.mu.
func (el *elector) install(s *Server, tally map[uint64]acceptedTxn, now time.Duration) {
	e := el.e
	epoch := s.election.epoch
	if e.leaderLocked() != s {
		el.become(s, roleFollower, now)
		s.election.lastBeat = now
		return
	}
	s.election.promised = epoch
	s.mu.Lock()
	// What it accepted while it stood counts as its own vote's tail.
	tally = merge(tally, s.accepted)
	zxids := make([]uint64, 0, len(tally))
	for z := range tally {
		if z > s.lastApplied {
			zxids = append(zxids, z)
		}
	}
	sort.Slice(zxids, func(i, j int) bool { return zxids[i] < zxids[j] })
	for _, z := range zxids {
		tally[z].Txn.Apply(s.tree)
		s.lastApplied = z
	}
	s.dataEpoch = epoch
	s.pending = make(map[uint64]Txn)
	s.clearAcceptedLocked()
	s.applyPendingLocked()
	s.mu.Unlock()

	el.log = append(el.log, ElectionRecord{Epoch: epoch, Leader: s.Region, At: now})
	if e.trc != nil {
		e.trc.Instant(e.electTrk, "elected", string(s.Region), now)
	}
	for _, q := range s.election.rounds {
		q.abort() // an older epoch's, which the installed state holds
	}
	el.runBeats(s, epoch)
	e.resyncLagging(s)
	s.election.heard, s.election.heardEp = s, epoch
	el.resendForwards(s)
	el.stopped = el.quiescing
}

// resendForwards re-sends every forward s keeps that has not landed to the
// leader s has just heard of, in the order they were first sent. One that
// s now leads for itself leaves the list: it has arrived. Callers hold
// el.mu.
func (el *elector) resendForwards(s *Server) {
	st := &s.election
	fs := st.forwards
	if st.heard == s {
		st.forwards = nil
	}
	for _, f := range fs {
		f.resend(st.heard)
	}
}

// --- timers -------------------------------------------------------------

func (el *elector) armTimer(s *Server, d time.Duration) {
	el.e.tr.Clock().RunAfter(d, func() { el.timerFired(s) })
}

// timerFired is the per-server election timer: it re-arms itself forever
// (until stop) and starts or retries an election when a non-suspended
// follower's heartbeat lease has lapsed.
func (el *elector) timerFired(s *Server) {
	el.mu.Lock()
	if el.stopped {
		el.mu.Unlock()
		return
	}
	st := &s.election
	now := el.e.tr.Clock().Now()
	if st.suspended || st.role == roleLeader {
		el.mu.Unlock()
		el.armTimer(s, st.timeout)
		return
	}
	if st.role == roleFollower {
		if wait := st.lastBeat + st.timeout - now; wait > 0 {
			el.mu.Unlock()
			el.armTimer(s, wait)
			return
		}
		// Timed out: fresh candidacy in a new epoch.
		st.epoch++
	} else if st.sawDeny {
		// Candidate retry after a live denial (e.g. a split vote): a new
		// epoch releases the deniers' votes. Without any reply — an
		// isolated candidate — retry in the same epoch, keeping the votes
		// it holds, so a minority server cannot inflate epochs unboundedly
		// while partitioned.
		st.epoch++
	}
	el.stand(s, now)
	el.armTimer(s, st.timeout)
}

// stand makes s a candidate in its epoch, unless it already is one, and
// asks the others for their votes. Callers hold el.mu; stand releases it.
func (el *elector) stand(s *Server, now time.Duration) {
	st := &s.election
	if st.role != roleCandidate || st.votedEp != st.epoch {
		el.become(s, roleCandidate, now)
	}
	epoch := st.epoch
	candEpoch, candApplied, candZxid := s.electInfo()
	el.mu.Unlock()

	for _, r := range el.e.order {
		if v := el.e.servers[r]; v != s {
			el.e.tr.Send(s.Region, r, netsim.LinkReplica, VoteRequestSize, func() {
				el.onVoteRequest(v, s, epoch, candEpoch, candApplied, candZxid)
			})
		}
	}
}

// --- heartbeats ---------------------------------------------------------

func (el *elector) runBeats(s *Server, epoch uint64) {
	el.e.tr.Clock().RunAfter(el.e.cfg.HeartbeatInterval, func() { el.beat(s, epoch) })
}

// beat is the leader heartbeat chain: it ends when the server is no longer
// the leader of this epoch (deposed or superseded); a suspended leader
// skips the sends but keeps the chain so beats resume on restart.
func (el *elector) beat(s *Server, epoch uint64) {
	el.mu.Lock()
	st := &s.election
	if el.stopped || st.role != roleLeader || st.epoch != epoch {
		el.mu.Unlock()
		return
	}
	suspended := st.suspended
	el.e.inv.checkLeadership(el, s)
	el.mu.Unlock()

	if !suspended {
		for _, r := range el.e.order {
			if other := el.e.servers[r]; other != s {
				el.e.tr.Send(s.Region, r, netsim.LinkReplica, HeartbeatSize, func() {
					el.onHeartbeat(other, s, epoch)
				})
			}
		}
	}
	el.runBeats(s, epoch)
}

// onHeartbeat runs at a server hearing leader's heartbeat of its epoch or a
// newer one — or, at a follower, of any epoch it has not promised past, a
// lost candidacy's epoch promising nothing: adopt the epoch, step down from
// any candidacy (or stale leadership), refresh the lease, and, on a newer
// epoch than the one it heard of, re-send its forwards to leader.
func (el *elector) onHeartbeat(s, leader *Server, epoch uint64) {
	el.mu.Lock()
	st := &s.election
	if el.stopped || st.suspended {
		el.mu.Unlock()
		return
	}
	if epoch < st.epoch && (st.role != roleFollower || epoch < st.promised) {
		// A server that promised an epoch no leader it heard of holds (a
		// lost candidacy's) answers: the leader stands again above it.
		stuck, above := epoch < st.promised && st.heardEp < st.promised, st.epoch
		el.mu.Unlock()
		if stuck {
			el.e.tr.Send(s.Region, leader.Region, netsim.LinkReplica, HeartbeatSize, func() {
				el.onStale(leader, epoch, above)
			})
		}
		return
	}
	now := el.e.tr.Clock().Now()
	st.epoch, st.promised = epoch, max(st.promised, epoch)
	if st.role != roleFollower {
		el.become(s, roleFollower, now)
	}
	st.lastBeat = now
	el.learn(s, leader, epoch)
	el.mu.Unlock()
}

// learn is s hearing of leader in epoch, from its heartbeat or its
// snapshot: a newer epoch than the one s heard of makes leader where s
// forwards, and s re-sends its pending forwards there. Callers hold el.mu.
func (el *elector) learn(s, leader *Server, epoch uint64) {
	if st := &s.election; epoch > st.heardEp {
		st.heard, st.heardEp = leader, epoch
		el.resendForwards(s)
	}
}

// onStale runs at s, leading epoch, when a server that promised a newer one,
// and so refuses s's proposals, ignored its heartbeat: s stands again above
// that server's epoch.
func (el *elector) onStale(s *Server, epoch, above uint64) {
	el.mu.Lock()
	st := &s.election
	if el.stopped || st.suspended || st.role != roleLeader || st.epoch != epoch {
		el.mu.Unlock()
		return
	}
	st.epoch = above + 1
	el.stand(s, el.e.tr.Clock().Now())
}

// stepDown is s, leading epoch, learning from a majority's refusals that
// they have seen a newer one: it follows, with a fresh lease, until it hears
// the newer leader or stands again. Until then it names no leader, not
// itself, so that a forward it fails tells its contact nothing stale.
func (el *elector) stepDown(s *Server, epoch uint64) {
	el.mu.Lock()
	defer el.mu.Unlock()
	if st := &s.election; st.role == roleLeader && st.epoch == epoch {
		now := el.e.tr.Clock().Now()
		el.become(s, roleFollower, now)
		st.lastBeat = now
		if st.heard == s {
			st.heard = nil
		}
	}
}

// --- votes --------------------------------------------------------------

// onVoteRequest runs at voter v for a candidacy of cand.
func (el *elector) onVoteRequest(v, cand *Server, epoch, candEpoch, candApplied, candZxid uint64) {
	el.mu.Lock()
	st := &v.election
	if el.stopped || st.suspended {
		el.mu.Unlock()
		return
	}
	now := el.e.tr.Clock().Now()
	reply := func(granted, leaderLive bool, tail map[uint64]acceptedTxn) {
		el.mu.Unlock()
		el.e.tr.Send(v.Region, cand.Region, netsim.LinkReplica, voteReplySize(tail), func() {
			el.onVoteReply(cand, v, epoch, granted, leaderLive, tail)
		})
	}
	if epoch < st.epoch {
		reply(false, false, nil)
		return
	}
	// Leader lease pre-vote: a live leader, or a server that heard
	// another leader or granted a vote within the lease — two heartbeat
	// intervals, which tolerate one lost beat — denies without adopting the
	// epoch: a healed minority candidate steps down instead of deposing a
	// healthy leader.
	if st.role == roleLeader || now-st.lastBeat < 2*el.e.cfg.HeartbeatInterval && st.heard != cand {
		reply(false, true, nil)
		return
	}
	if epoch > st.epoch {
		st.epoch, st.promised = epoch, epoch
		if st.role != roleFollower {
			el.become(v, roleFollower, now)
		}
	}
	if st.votedEp == epoch && st.votedFor != cand.Region {
		reply(false, false, nil)
		return
	}
	vEpoch, _, vZxid := v.electInfo()
	if candEpoch < vEpoch || (candEpoch == vEpoch && candZxid < vZxid) {
		// Newest-state rule: never elect a candidate behind this voter.
		reply(false, false, nil)
		return
	}
	st.votedFor, st.votedEp, st.lastBeat = cand.Region, epoch, now
	reply(true, false, v.acceptedTail(candApplied))
}

// onVoteReply runs at the candidate.
func (el *elector) onVoteReply(cand, voter *Server, epoch uint64, granted, leaderLive bool, tail map[uint64]acceptedTxn) {
	el.mu.Lock()
	defer el.mu.Unlock()
	st := &cand.election
	if el.stopped || st.suspended || st.role != roleCandidate || st.epoch != epoch {
		return
	}
	now := el.e.tr.Clock().Now()
	if !granted {
		if leaderLive {
			// The cluster has a live leader: stand down and wait to hear
			// it. The candidacy's epoch promised nothing, so the follower
			// hears the leader's heartbeats below it (onHeartbeat).
			el.become(cand, roleFollower, now)
			st.lastBeat = now
		} else {
			st.sawDeny = true
		}
		return
	}
	if slices.Contains(st.voters, voter.Region) {
		return // a grant to an earlier request of this candidacy
	}
	st.voters = append(st.voters, voter.Region)
	st.tally = merge(st.tally, tail)
	if len(st.voters) > len(el.e.order)/2 {
		el.become(cand, roleLeader, now)
	}
}

// merge adds tail's entries to tally, an entry of a higher epoch winning
// at a zxid both hold, and returns tally.
func merge(tally, tail map[uint64]acceptedTxn) map[uint64]acceptedTxn {
	for z, a := range tail {
		if cur, ok := tally[z]; !ok || a.Epoch > cur.Epoch {
			if tally == nil {
				tally = make(map[uint64]acceptedTxn)
			}
			tally[z] = a
		}
	}
	return tally
}
