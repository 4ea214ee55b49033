package zk

import (
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
// (netsim.Hop, Clock.At), the waiter slots of its acks (Queue.Then), of the
// contact's applied-wait and of the preliminary-ordering wait (Event.Then) —
// so no event moves, and no goroutine, spawn or token handoff is left. The
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
// has taken the result.
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
	via       *Server       // where the forward was sent: the leader as the contact saw it
	leader    *Server       // the leader as the forward found it on arrival
	zxid      uint64
	epoch     uint64
	res       TxnResult
	p         *proposal
	acks      int           // acks the round still waits for
	sp        trace.SpanID  // the open quorum span
	applied   *netsim.Event // the contact's applied-wait
	final     QueueView

	step   func()          // r.advance
	flush  func()          // r.flushed: the preliminary's delivery
	ack    func(any)       // r.acked: one follower's ack
	view   func(QueueView) // r.emit: the binding's view sink
	recipe func()          // r.dequeueRecipe: a vanilla dequeue's actor body
}

// opState is what the record last waited for.
type opState uint8

const (
	opBegin    opState = iota // its first turn: send the request
	opRequest                 // the request is on the way to the contact
	opServed                  // the contact's slot is done: simulate, forward
	opForward                 // the forward is on the way to the leader
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
		r.step, r.flush, r.ack, r.view, r.recipe = r.advance, r.flushed, r.acked, r.emit, r.dequeueRecipe
	}
	return r
}

// putRecord recycles r, cleared of the operation's references, for its next
// operation's first step.
func (e *Ensemble) putRecord(r *opRecord) {
	r.state = opBegin
	r.b, r.op, r.cb, r.answered, r.onView, r.finished = nil, nil, nil, false, nil, nil
	r.contact, r.qtxn, r.txn = nil, nil, nil
	r.prelim, r.delivered, r.via, r.leader, r.res, r.final = QueueView{}, nil, nil, nil, TxnResult{}, QueueView{}
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
	case opForward:
		if !r.hop.Arrived() {
			return
		}
		r.arrived()
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
// preliminary view — a callback-timer message, r.flushed. The zxid the view
// carries is the contact's watermark when it simulated.
func (r *opRecord) simulate() {
	tr := r.e.tr
	zxid := r.contact.LastApplied()
	elem, remaining, err := r.qtxn.simulate(r.contact.tree)
	if err != nil {
		return
	}
	r.prelim = QueueView{Element: elem, Remaining: remaining, Level: core.LevelWeak, Zxid: zxid}
	r.delivered = tr.Clock().NewEvent()
	r.left = tr.Send(r.contact.Region, r.client, netsim.LinkClient, responseSize(elementPayload(elem)), r.flush)
}

// flushed delivers the preliminary view: the flush's Send callback.
func (r *opRecord) flushed() {
	r.onView(r.prelim)
	r.delivered.Fire()
}

// forward starts the transaction's way through the ordered-commit protocol:
// the contact->leader hop, the leader's prep-apply and numbering, a majority
// of follower acks, and the commit and result back to the contact on one
// message. The record goes on once the contact has applied the transaction
// (committed); the other followers' commits travel on asynchronously.
//
// Fail-fast validation errors (missing node, node exists) come back with
// zxid 0 and no broadcast, like ZooKeeper's prep processor.
func (r *opRecord) forward() {
	e := r.e
	r.via = e.Leader()
	if r.contact != r.via {
		r.state = opForward
		r.hop.Send(e.tr, r.contact.Region, r.via.Region, netsim.LinkReplica, proposalSize(r.txn), r.step)
		return
	}
	r.arrived()
}

// arrived takes the forward's leader slot. Leadership is read again here,
// once the request has landed, so a forward stalled at a deposed leader is
// proposed by its successor (ROADMAP item 2(b), pinned by
// TestForwardStalledAtDeposedLeaderIsProposedBySuccessor).
func (r *opRecord) arrived() {
	e := r.e
	r.leader = e.Leader()
	r.state = opPrepared
	e.tr.Clock().At(r.leader.proc.Reserve(e.cfg.ServiceTime), r.step)
}

// propose numbers the transaction at the leader and, unless it fails fast,
// starts every follower's leg of a proposal and waits for a majority of acks
// (the leader's own is implicit).
func (r *opRecord) propose() {
	e := r.e
	leader := r.leader
	r.zxid, r.epoch, r.res = leader.prepare(r.txn)
	if r.zxid == 0 {
		r.back()
		return
	}
	need := e.quorum()
	if e.trc != nil && need > 0 {
		r.sp = e.trc.Begin(e.phaseTrk[leader.Region], trace.CatQuorum, "propose", "", e.tr.Clock().Now())
	}
	p := e.getProposal()
	p.leader, p.txn, p.zxid, p.epoch, p.need = leader, r.txn, r.zxid, r.epoch, need
	p.refs.Store(int32(len(e.order))) // the followers' legs and this round
	for i, region := range e.order {
		if region != leader.Region {
			p.legs[i].start()
		}
	}
	r.p, r.acks = p, need
	if need == 0 {
		r.quorate()
		return
	}
	p.acks.Then(r.ack)
}

// acked takes one follower's ack off the proposal's queue.
func (r *opRecord) acked(any) {
	if r.acks--; r.acks > 0 {
		r.p.acks.Then(r.ack)
		return
	}
	r.quorate()
}

// quorate is the commit: a majority has acked. The round lets go of its
// proposal, and the commits go out to every follower but the contact, whose
// commit rides on the reply.
func (r *opRecord) quorate() {
	e := r.e
	p := r.p
	r.p = nil
	e.inv.checkCommit(r.leader.Region, r.epoch)
	if r.sp != 0 {
		e.trc.End(r.sp, e.tr.Clock().Now())
		r.sp = 0
	}
	p.commit(r.contact)
	r.back()
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
	r.final = QueueView{Element: elem, Remaining: remaining, Level: core.LevelStrong, Final: true, Zxid: r.zxid}
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
