package zk

import (
	"errors"
	"slices"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// opRecord is one queue operation in flight — the CZK request of §5.2 — or
// one bare commit: a client request's transaction carried through Zab, from
// the contact to the leader, its proposal and back. It stands in place of an
// actor that blocks at every hop, server slot and wait. Its step is a
// continuation chain that takes exactly the slots the actor took — the ready
// slot of its spawn (Clock.Run), the timers of its hops and server slots
// (netsim.Hop, Clock.At), the waiter slots of its acks (Queue.Then), of its
// round's turn, the contact's applied-wait and the preliminary-ordering
// wait (Event.Then) — so no event moves, and no goroutine, spawn or token
// handoff is left. The
// steps are methods bound once, when the record is built; every later
// operation that takes it off the ensemble's free list reuses them.
//
// A blocking call (QueueClient.request, Ensemble.forward) starts the record
// on its caller's stack and waits for it. The record wakes the caller at the
// start of the step in which the actor would have returned, before that step
// readies anyone else, so the caller resumes where the actor did; a wait the
// actor would still have made there, on the preliminary or the contact's
// applied zxid, the caller then makes itself.
//
// A record the binding submitted goes back to the free list when its last
// step has run, and nothing else returns it: an invocation the client
// library timed out is abandoned, not recycled — its record runs on until the
// fault heals, its late views are refused by the closed Correctable, and only
// then does it go back. A blocking call's record goes back once its caller
// has taken the result. Either way, a forward the record superseded (see
// forwardMsg) still holds it until that forward has landed.
//
// Leadership is the contact's and the leader's own: the contact forwards to
// the leader it has heard of, and the server the forward reaches proposes
// only while it leads in its own epoch (Server.leads); otherwise, or if its
// round cannot commit in that epoch, the operation fails with
// ErrLeaderLost. A request the binding submitted stays on its contact's list
// of pending forwards until its forward lands, and is re-sent to the leader
// of a newer epoch the contact hears of meanwhile (resend). A blocking
// call's forward is not re-sent: it lands where it was sent.
type opRecord struct {
	e *Ensemble

	// The binding's request; b is nil on a blocking call.
	b                    *Binding
	op                   binding.Operation
	cb                   binding.Callback
	wantWeak, wantStrong bool
	answered             bool // a weak-only request has had its one view
	// The view sink (the binding's emit, or a blocking caller's), and the
	// event a blocking caller waits on.
	onView   func(QueueView)
	finished *netsim.Event

	// The operation: a request from the client region, or a bare commit
	// (qtxn nil).
	client     netsim.Region
	contact    *Server
	qtxn       queueTxn
	txn        Txn // what the forward commits
	wantPrelim bool

	// Where it is.
	state     opState
	hop       netsim.Hop
	prelim    QueueView     // the contact's simulation
	delivered *netsim.Event // fired once the preliminary view is delivered
	left      bool          // the preliminary left (Transport.Send)
	via       *Server       // where the current attempt went: the leader the contact heard of
	attempt   uint32        // the forward's attempt; each re-send is a new one
	hint      *Server       // on ErrLeaderLost, the leader via had heard of, in epoch hintEp
	hintEp    uint64
	zxid      uint64
	epoch     uint64
	res       TxnResult
	p         *proposal
	sp        trace.SpanID  // the open quorum span
	applied   *netsim.Event // the contact's applied-wait
	final     QueueView
	refs      int // the operation, plus each superseded forward not yet landed

	step   func()          // r.advance
	flush  func()          // r.flushed: the preliminary's delivery
	ack    func(any)       // r.acked: one answer to the round
	turn   func()          // r.turned: the earlier rounds are decided
	view   func(QueueView) // r.emit: the binding's view sink
	recipe func()          // r.dequeueRecipe: a vanilla dequeue's actor body
}

// ErrLeaderLost fails an operation whose forward reached a server that did
// not lead in its own epoch, or whose leader could not commit it in that
// epoch: it stepped down, or too many followers had seen a newer one. The
// operation may still have taken effect — a follower that acked it may carry
// it into the next epoch — so, like a timeout, it is ambiguous.
var ErrLeaderLost = errors.New("zk: the leader lost its epoch before committing the request")

// opState is what the record last waited for.
type opState uint8

const (
	opBegin    opState = iota // its first turn: send the request
	opRequest                 // the request is on the way to the contact
	opServed                  // the contact's slot is done: simulate, forward (forwardMsg)
	opPrepared                // the leader's slot is done: number and propose
	opBack                    // commit and result are on the way back to the contact
	opApplied                 // the contact has applied the commit
	opResponse                // the reply is on the way to the client
	opOrdered                 // the preliminary view has been delivered
)

func (e *Ensemble) getRecord() *opRecord {
	r := e.records.Take()
	if r == nil {
		r = &opRecord{e: e}
		r.step, r.flush, r.ack, r.turn, r.view, r.recipe = r.advance, r.flushed, r.acked, r.turned, r.emit, r.dequeueRecipe
	}
	r.refs = 1
	return r
}

// putRecord lets go of r on behalf of its operation or of a superseded
// forward. The last one recycles it, cleared of the operation's references,
// for its next operation's first step.
func (e *Ensemble) putRecord(r *opRecord) {
	if r.refs--; r.refs > 0 {
		return
	}
	r.state, r.attempt = opBegin, 0
	r.b, r.op, r.cb, r.answered, r.onView, r.finished = nil, nil, nil, false, nil, nil
	r.contact, r.qtxn, r.txn = nil, nil, nil
	r.prelim, r.delivered, r.via, r.hint, r.res, r.final = QueueView{}, nil, nil, nil, TxnResult{}, QueueView{}
	e.records.Put(r)
}

// setRequest makes r the request of txn from the client region c.Region via
// its contact.
func (r *opRecord) setRequest(c *QueueClient, txn queueTxn, wantPrelim bool) {
	r.client, r.contact = c.Region, r.e.Server(c.Contact)
	r.qtxn, r.txn, r.wantPrelim = txn, txn, wantPrelim
}

// advance is the record's one step: it runs whenever what the operation last
// waited for — its turn, a hop, a server slot, the contact's apply, the
// preliminary — has come.
func (r *opRecord) advance() {
	e := r.e
	tr := e.tr
	switch r.state {
	case opBegin:
		if r.b != nil && !r.decode() {
			e.putRecord(r)
			return
		}
		r.state = opRequest
		r.hop.Send(tr, r.client, r.contact.Region, netsim.LinkClient, requestSize(r.txn.PayloadSize()), r.step)
	case opRequest:
		if !r.hop.Arrived() {
			return
		}
		r.state = opServed
		tr.Clock().At(r.contact.proc.Reserve(e.cfg.ServiceTime), r.step)
	case opServed:
		if r.wantPrelim {
			r.simulate()
		}
		r.forward()
	case opPrepared:
		r.propose()
	case opBack:
		if !r.hop.Arrived() {
			return
		}
		if r.qtxn == nil {
			// A bare commit's caller resumes here, before the commit below
			// readies anyone, and makes the applied-wait itself.
			r.finished.Fire()
		}
		if r.zxid != 0 {
			r.contact.deliverCommit(r.zxid, r.epoch, r.txn)
			r.applied = r.contact.awaitApplied(r.zxid)
		}
		if r.hint != nil {
			r.contact.hear(r.hint, r.hintEp)
		}
		if r.qtxn == nil {
			return
		}
		if r.applied != nil {
			r.state = opApplied
			r.applied.Then(r.step)
			return
		}
		r.committed()
	case opApplied:
		r.applied.Release()
		r.applied = nil
		r.committed()
	case opResponse:
		if !r.hop.Arrived() {
			return
		}
		if r.finished != nil {
			// A blocking caller resumes here and orders the views itself.
			r.finished.Fire()
			return
		}
		// Preserve view order even under jitter: the final waits for the
		// preliminary, but only if the preliminary left (netsim.AwaitFlush).
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

// simulate has the contact predict the operation's outcome on its local
// tree and, when it can, flush the prediction to the client as the
// preliminary view — a callback-timer message, r.flushed. The version the
// view carries is the contact's applied state's when it simulated.
func (r *opRecord) simulate() {
	tr := r.e.tr
	version := r.contact.version()
	elem, remaining, err := r.qtxn.simulate(r.contact.tree)
	if err != nil {
		return
	}
	r.prelim = QueueView{Element: elem, Remaining: remaining, Level: core.LevelWeak, Zxid: version}
	r.delivered = tr.Clock().NewEvent()
	r.left = tr.Send(r.contact.Region, r.client, netsim.LinkClient, responseSize(elementPayload(elem)), r.flush)
}

// flushed delivers the preliminary view: the flush's Send callback.
func (r *opRecord) flushed() {
	r.onView(r.prelim)
	r.delivered.Fire()
}

// forward starts the transaction's way through the ordered-commit protocol:
// the hop to the leader the contact has heard of, its prep-apply and
// numbering there, a majority of follower acks, and the commit and result
// back to the contact on one message. The record goes on once the contact
// has applied the transaction (committed); the other followers' commits
// travel on asynchronously.
//
// Fail-fast validation errors (missing node, node exists) come back with
// zxid 0 and no broadcast, like ZooKeeper's prep processor, and so does
// ErrLeaderLost.
func (r *opRecord) forward() {
	var keep forwarder
	if r.b != nil {
		keep = r
	}
	r.via = r.contact.forwardTo(keep)
	if r.via == r.contact {
		r.arrived()
		return
	}
	r.e.getForward(r, r.via).start()
}

// resend makes a new attempt of the forward, to the leader of a newer epoch
// its contact has just heard of (elector.resendForwards, under the elector
// lock); the attempt it supersedes holds the record until it lands. The new
// attempt leaves in a turn of its own (Clock.Run), as a spawned actor would.
func (r *opRecord) resend(to *Server) {
	r.attempt++
	r.refs++
	r.via = to
	r.e.tr.Clock().Run(r.e.getForward(r, to).send)
}

// arrived takes the forward's slot at the server it reached.
func (r *opRecord) arrived() {
	r.state = opPrepared
	r.e.tr.Clock().At(r.via.proc.Reserve(r.e.cfg.ServiceTime), r.step)
}

// propose numbers the transaction at the server the forward reached if it
// leads in its own epoch and, unless the transaction fails fast, opens a
// round — every follower's leg — and takes its answers; the leader's own
// ack is implicit.
func (r *opRecord) propose() {
	e := r.e
	leader := r.via
	if !leader.leads() {
		r.fail()
		return
	}
	r.zxid, r.epoch, r.res = leader.prepare(r.txn)
	if r.zxid == 0 {
		r.back()
		return
	}
	if e.trc != nil && e.quorum() > 0 {
		r.sp = e.trc.Begin(e.phaseTrk[leader.Region], trace.CatQuorum, "propose", "", e.tr.Clock().Now())
	}
	p := e.getProposal()
	p.open(leader, r.txn, r.zxid, r.epoch)
	r.p = p
	if p.need == 0 {
		r.quorate()
		return
	}
	p.acks.Then(r.ack)
}

// acked takes one answer off the round's queue.
func (r *opRecord) acked(a any) {
	switch decided, commits := r.p.tally(a.(answer)); {
	case !decided:
		r.p.acks.Then(r.ack)
	case !commits:
		r.lost()
	case r.p.waitTurn():
		r.p.turn.Then(r.turn)
	default:
		r.quorate()
	}
}

// turned is the round's turn: the rounds before it are decided.
func (r *opRecord) turned() {
	p := r.p
	p.turn.Release()
	p.turn = nil
	if p.aborted {
		r.lost()
		return
	}
	r.quorate()
}

// lost ends a round that cannot commit: the operation fails with
// ErrLeaderLost, no commit goes out, and once the reply is on its way the
// rounds after it fail too and, if a majority refused it, the leader steps
// down.
func (r *opRecord) lost() {
	e := r.e
	p := r.p
	r.p = nil
	leader, epoch, refused := r.via, r.epoch, !p.aborted
	if r.sp != 0 {
		e.trc.End(r.sp, e.tr.Clock().Now())
		r.sp = 0
	}
	next := p.leave()
	p.release()
	r.fail()
	abortFrom(next)
	if refused {
		e.elect.stepDown(leader, epoch)
	}
}

// fail answers the forward with ErrLeaderLost, and with the leader the
// server it reached has heard of, which the contact may not have.
func (r *opRecord) fail() {
	r.zxid, r.epoch, r.res = 0, 0, TxnResult{Err: ErrLeaderLost}
	r.hint, r.hintEp = r.via.heardOf()
	r.back()
}

// quorate is the commit: a majority has acked. The round lets go of its
// proposal, and the commits go out to every follower but the contact, whose
// commit rides on the reply.
func (r *opRecord) quorate() {
	e := r.e
	p := r.p
	r.p = nil
	e.inv.checkCommit(e, r.via, r.zxid, r.epoch)
	if r.sp != 0 {
		e.trc.End(r.sp, e.tr.Clock().Now())
		r.sp = 0
	}
	next := p.leave()
	p.commit(r.contact)
	r.back()
	passTurn(next)
}

// back carries the commit and result back to the contact, on one message.
func (r *opRecord) back() {
	if r.contact != r.via {
		r.state = opBack
		r.hop.Send(r.e.tr, r.via.Region, r.contact.Region, netsim.LinkReplica, commitSize(r.txn), r.step)
		return
	}
	r.committed()
}

// committed is where the forward ends. A bare commit's caller resumes here;
// a request replies to its client, with the committed element unless the
// commit failed, in which case the reply carries no element.
func (r *opRecord) committed() {
	if r.qtxn == nil {
		r.finished.Fire()
		return
	}
	var elem *QueueElement
	remaining := 0
	if r.res.Err == nil {
		elem, remaining = r.qtxn.outcome(r.res)
	}
	r.final = QueueView{Element: elem, Remaining: remaining, Level: core.LevelStrong, Final: true, Zxid: stamp(r.epoch, r.zxid)}
	r.state = opResponse
	r.hop.Send(r.e.tr, r.contact.Region, r.client, netsim.LinkClient, responseSize(elementPayload(elem)), r.step)
}

// finish ends a request the binding submitted: the final view, or the
// error, to the binding callback. A weak-only request that got its view is
// answered: what became of the commit behind it is not its business.
func (r *opRecord) finish() {
	if r.delivered != nil {
		r.delivered.Release()
	}
	if r.res.Err == nil {
		r.emit(r.final)
	} else if !r.answered {
		r.cb(binding.Result{Err: r.res.Err})
	}
	r.e.putRecord(r)
}

// forwardMsg is one attempt of a forward on its way from the contact to the
// server the contact sent it to, with a hop of its own: a superseded attempt
// still travels — the contact cannot call back what it sent — and is
// discarded where it lands, unseen by that server. It holds its record until
// then. A fresh attempt starts at once (forward) or in a turn of its own
// (resend).
type forwardMsg struct {
	r          *opRecord
	n          uint32 // the attempt it carries
	to         *Server
	hop        netsim.Hop
	send, step func() // m.start, m.landed
}

func (e *Ensemble) getForward(r *opRecord, to *Server) *forwardMsg {
	m := e.forwardMsgs.Take()
	if m == nil {
		m = &forwardMsg{}
		m.send, m.step = m.start, m.landed
	}
	m.r, m.n, m.to = r, r.attempt, to
	return m
}

// start puts the attempt on the wire, or hands it over at once when the
// contact sends it to itself (it leads now). An attempt superseded before
// its turn came never leaves.
func (m *forwardMsg) start() {
	r := m.r
	switch {
	case m.n != r.attempt:
		m.discard()
	case m.to == r.contact:
		m.put()
		r.arrived()
	default:
		m.hop.Send(r.e.tr, r.contact.Region, m.to.Region, netsim.LinkReplica, proposalSize(r.txn), m.step)
	}
}

// landed is the hop's step: at the target, the current attempt leaves its
// contact's pending list and takes the target's slot.
func (m *forwardMsg) landed() {
	if !m.hop.Arrived() {
		return
	}
	r := m.r
	if m.n != r.attempt {
		m.discard()
		return
	}
	if r.b != nil {
		r.contact.landed(r)
	}
	m.put()
	r.arrived()
}

// discard drops a superseded attempt, which lets go of its record.
func (m *forwardMsg) discard() {
	r := m.r
	m.put()
	r.e.putRecord(r)
}

func (m *forwardMsg) put() {
	e := m.r.e
	m.r, m.to = nil, nil
	e.forwardMsgs.Put(m)
}

// A forwarder is a forward its contact keeps until it lands, on the
// contact's list (electState.forwards), so that the leader of a newer epoch
// gets it again.
type forwarder interface {
	resend(to *Server)
}

// forwardTo returns the server s, as a contact, forwards a request to: the
// leader it has heard of. Unless that is s itself, a non-nil f waits on s's
// list of pending forwards until it lands there (landed) or a newer epoch
// re-sends it.
func (s *Server) forwardTo(f forwarder) *Server {
	el := s.ensemble.elect
	if el == nil {
		return s.election.heard
	}
	el.mu.Lock()
	defer el.mu.Unlock()
	to := s.election.heard
	if to != s && f != nil {
		s.election.forwards = append(s.election.forwards, f)
	}
	return to
}

// landed takes f, whose forward has reached its target, off s's list.
func (s *Server) landed(f forwarder) {
	el := s.ensemble.elect
	if el == nil {
		return
	}
	el.mu.Lock()
	st := &s.election
	i := slices.Index(st.forwards, f)
	st.forwards = slices.Delete(st.forwards, i, i+1)
	el.mu.Unlock()
}

// heardOf returns the leader s has heard of, and its epoch.
func (s *Server) heardOf() (*Server, uint64) {
	if el := s.ensemble.elect; el != nil {
		el.mu.Lock()
		defer el.mu.Unlock()
	}
	return s.election.heard, s.election.heardEp
}

// hear is s, as a contact, hearing of leader in epoch from the reply to a
// forward that failed.
func (s *Server) hear(leader *Server, epoch uint64) {
	el := s.ensemble.elect
	el.mu.Lock()
	el.learn(s, leader, epoch)
	el.mu.Unlock()
}
