package zk

import (
	"errors"
	"slices"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// opRecord is one zk operation in flight, and the only way one runs: the
// CZK request of §5.2, the vanilla enqueue, the vanilla dequeue recipe
// (getChildren, getData and delete, again after each lost race) and
// CreateQueue — each call from the client to its contact and, for each
// transaction it commits, the hop to the leader, its proposal and back. It
// stands in place of an actor that blocks at every hop, server slot and
// wait. Its step is a continuation chain that takes exactly the slots the
// actor took — the ready slot of its spawn (Clock.Run), the timers of its
// hops and server slots (netsim.Hop, Clock.At), the waiter slots of its
// acks (Queue.Then), of its round's turn, the contact's applied-wait and the
// preliminary-ordering wait (Event.Then) — so no event moves, and no
// goroutine, spawn or token handoff is left. The steps are methods bound
// once, when the record is built, and reused by every later operation that
// takes it off the ensemble's free list.
//
// The binding submits a record (Binding.SubmitOperation), and so does a
// blocking call (QueueClient's methods), which then waits for it (run). The
// operation ends in finish: the final view or the error, and a blocking
// caller woken. The record goes back to the free list once nothing holds it:
// not its operation, until finish; not a blocking caller, until it has taken
// the result; not a forward it superseded (forwardMsg), until that has
// landed. An invocation the client library timed out is abandoned: its
// record runs on until the fault heals, its late views refused by the
// closed Correctable, and only then goes back.
//
// Leadership is the contact's and the leader's own: the contact forwards to
// the leader it has heard of, and the server the forward reaches proposes
// only while it leads in its own epoch (Server.leads); otherwise, or if its
// round cannot commit in that epoch, the transaction fails with
// ErrLeaderLost. Every forward stays on its contact's list of pending
// forwards until it lands, and is re-sent to the leader of a newer epoch
// the contact hears of meanwhile (resend).
type opRecord struct {
	e *Ensemble

	// The binding's request (cb nil on a blocking call); the view sink, the
	// binding's emit or a blocking caller's (nil for CreateQueue); the event
	// a blocking caller waits on.
	cb                   binding.Callback
	wantWeak, wantStrong bool
	answered             bool // a weak-only request has had its one view
	onView               func(QueueView)
	done                 *netsim.Event

	// The operation: calls from the client region to its contact.
	client     netsim.Region
	contact    *Server
	call       opCall   // the call in flight
	qtxn       queueTxn // a request's transaction
	wantPrelim bool
	dir        string // the recipe's queue, CreateQueue's directory
	// The recipe's child list, its head, the head's path and data;
	// CreateQueue's path is the node it creates, retried whether that
	// create is a retry after ErrLeaderLost.
	children   []string
	head, path string
	data       []byte
	retried    bool

	// Where it is.
	state     opState
	hop       netsim.Hop
	prelim    QueueView     // the contact's simulation
	delivered *netsim.Event // fired once the preliminary view is delivered
	left      bool          // the preliminary left (Transport.Send)
	txn       Txn           // what the forward commits
	via       *Server       // where the current attempt went: the leader the contact heard of
	attempt   uint32        // the forward's attempt; each re-send is a new one
	zxid      uint64
	epoch     uint64
	res       TxnResult // the last call's result: the forward's, or the contact's local read's
	p         *proposal
	sp        trace.SpanID  // the open quorum span
	applied   *netsim.Event // the contact's applied-wait
	final     QueueView
	refs      int // the operation, a blocking caller, each superseded forward not yet landed

	step  func()          // r.advance
	flush func()          // r.flushed: the preliminary's delivery
	ack   func(any)       // r.acked: one answer to the round
	turn  func()          // r.turned: the earlier rounds are decided
	view  func(QueueView) // r.emit: the binding's view sink
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
	opBegin    opState = iota // its first turn: send the first call
	opRequest                 // a call is on the way to the contact
	opServed                  // the contact's slot is done: serve the call
	opPrepared                // the leader's slot is done: number and propose
	opBack                    // commit and result are on the way back to the contact
	opApplied                 // the contact has applied the commit
	opResponse                // the reply is on the way to the client
	opOrdered                 // the preliminary view has been delivered
)

// record takes a record for an operation of c's.
func (c *QueueClient) record() *opRecord {
	e := c.ensemble
	r := e.records.Take()
	if r == nil {
		r = &opRecord{e: e}
		r.step, r.flush, r.ack, r.turn, r.view = r.advance, r.flushed, r.acked, r.turned, r.emit
	}
	r.refs, r.client, r.contact = 1, c.Region, e.Server(c.Contact)
	return r
}

// putRecord lets go of r on behalf of its operation, its blocking caller or
// a superseded forward. The last one recycles it, cleared of the
// operation's references, for its next operation's first step.
func (e *Ensemble) putRecord(r *opRecord) {
	if r.refs--; r.refs > 0 {
		return
	}
	r.state, r.attempt, r.retried = opBegin, 0, false
	r.cb, r.answered, r.onView, r.done = nil, false, nil, nil
	r.contact, r.qtxn, r.txn, r.dir, r.children, r.head, r.path, r.data = nil, nil, nil, "", nil, "", "", nil
	r.prelim, r.delivered, r.via, r.res, r.final = QueueView{}, nil, nil, TxnResult{}, QueueView{}
	e.records.Put(r)
}

// advance is the record's one step: it runs whenever what the operation last
// waited for — its turn, a hop, a server slot, the contact's apply, the
// preliminary — has come.
func (r *opRecord) advance() {
	e := r.e
	switch r.state {
	case opBegin:
		r.ask(r.call)
	case opRequest:
		if !r.hop.Arrived() {
			return
		}
		r.state = opServed
		e.tr.Clock().At(r.contact.proc.Reserve(e.cfg.ServiceTime), r.step)
	case opServed:
		r.served()
	case opPrepared:
		r.propose()
	case opBack:
		if !r.hop.Arrived() {
			return
		}
		if r.zxid != 0 {
			r.contact.deliverCommit(r.zxid, r.epoch, r.txn)
			r.applied = r.contact.awaitApplied(r.zxid)
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
		r.replied()
	case opOrdered:
		r.finish()
	}
}

// ask sends the client's next call to the contact.
func (r *opRecord) ask(call opCall) {
	r.call, r.state = call, opRequest
	payload := len(r.dir) // getChildren, CreateQueue
	switch call {
	case callRequest:
		payload = r.txn.PayloadSize()
	case callData, callDelete:
		payload = len(r.path)
	}
	r.hop.Send(r.e.tr, r.client, r.contact.Region, netsim.LinkClient, requestSize(payload), r.step)
}

// reply sends the contact's reply to the call, of size bytes, to the client.
func (r *opRecord) reply(size int) {
	r.state = opResponse
	r.hop.Send(r.e.tr, r.contact.Region, r.client, netsim.LinkClient, size, r.step)
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

// forward starts r.txn's way through the ordered-commit protocol: the hop to
// the leader the contact has heard of, its prep-apply and numbering there, a
// majority of follower acks, and the commit and result back to the contact
// on one message. The record goes on once the contact has applied the
// transaction (committed); the other followers' commits travel on
// asynchronously.
//
// Fail-fast validation errors (missing node, node exists) come back with
// zxid 0 and no broadcast, like ZooKeeper's prep processor, and so does
// ErrLeaderLost.
func (r *opRecord) forward() {
	switch r.via = r.contact.forwardTo(r); r.via {
	case nil: // it waits on its contact's list for a leader
	case r.contact:
		r.arrived()
	default:
		r.e.getForward(r, r.via).start()
	}
}

// resend makes a new attempt of the forward, to the leader of a newer epoch
// its contact has just heard of (elector.resendForwards, under the elector
// lock); the attempt it supersedes, if one left, holds the record until it
// lands. The new attempt leaves in a turn of its own (Clock.Run), as a
// spawned actor would.
func (r *opRecord) resend(to *Server) {
	if r.via != nil {
		r.refs++
	}
	r.attempt++
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

// fail answers the forward with ErrLeaderLost.
func (r *opRecord) fail() {
	r.zxid, r.epoch, r.res = 0, 0, TxnResult{Err: ErrLeaderLost}
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

// finish ends the operation: the final view, or the error, to the binding
// callback or the blocking caller, which it then wakes. A weak-only request
// that got its view is answered: what became of the commit behind it is not
// its business.
func (r *opRecord) finish() {
	if r.delivered != nil {
		r.delivered.Release()
	}
	switch {
	case r.res.Err == nil && r.onView != nil:
		r.onView(r.final)
	case r.res.Err != nil && r.cb != nil && !r.answered:
		r.cb(binding.Result{Err: r.res.Err})
	}
	if r.done != nil {
		r.done.Fire()
	}
	r.e.putRecord(r)
}

// run submits the record of a blocking caller's operation, with the
// caller's view sink, and waits for it to finish; it takes the operation's
// error and lets go of the record.
func (r *opRecord) run(onView func(QueueView)) error {
	clock := r.e.tr.Clock()
	r.onView, r.done = onView, clock.NewEvent()
	r.refs++ // the caller's, until it has taken the result
	clock.Run(r.step)
	r.done.Wait()
	r.done.Release()
	err := r.res.Err
	r.e.putRecord(r)
	return err
}

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
	r.contact.landed(r)
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
// leader it has heard of, or nil when it names none. Unless that is s
// itself, f waits on s's list of pending forwards until it lands there
// (landed) or a newer epoch re-sends it.
func (s *Server) forwardTo(f forwarder) *Server {
	el := &s.ensemble.elect
	el.mu.Lock()
	defer el.mu.Unlock()
	to := s.election.heard
	if to != s {
		s.election.forwards = append(s.election.forwards, f)
	}
	return to
}

// landed takes f, whose forward has reached its target, off s's list.
func (s *Server) landed(f forwarder) {
	el := &s.ensemble.elect
	el.mu.Lock()
	st := &s.election
	i := slices.Index(st.forwards, f)
	st.forwards = slices.Delete(st.forwards, i, i+1)
	el.mu.Unlock()
}
