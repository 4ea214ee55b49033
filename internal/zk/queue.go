package zk

import (
	"errors"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/keys"
	"correctables/internal/netsim"
)

// QueueView is one response to a queue operation as observed at the client.
type QueueView struct {
	// Element is the enqueued/dequeued element. For enqueue it carries the
	// assigned (or, for preliminary views, predicted) name and sequence
	// number. For dequeue it is nil when the queue is empty.
	Element *QueueElement
	// Remaining is the number of elements left in the queue (dequeue only;
	// for preliminary views it is the local estimate).
	Remaining int
	// Level is LevelWeak for local simulations, LevelStrong for committed
	// results.
	Level core.Level
	// Final marks the last view of this operation.
	Final bool
	// Zxid is the version token of the state this view reflects: the
	// committed transaction's zxid for final views, the contact server's
	// last-applied zxid for preliminary (locally simulated) views, each
	// qualified by its epoch (stamp). It is the binding's per-queue version
	// token.
	Zxid uint64
}

// QueueClient issues queue operations against an ensemble from a client
// region via a fixed contact server, following the standard ZooKeeper queue
// recipe (vanilla) or the CZK fast path (correctable ensembles).
//
// Its methods are the bare protocol and have no deadline: an operation a
// fault makes impossible blocks until the fault heals. The client library
// owns the operation deadline (binding.Client bounds each invocation through
// the Binding with Config.OpTimeout under fault injection); call the methods
// directly only where nothing can stall them. Each method submits the
// record the Binding submits for the same operation (opRecord) and blocks
// the calling actor until it has finished. A view reaches onView in
// callback context, where it must not block.
type QueueClient struct {
	ensemble *Ensemble
	Region   netsim.Region
	Contact  netsim.Region
}

// NewQueueClient creates a client in clientRegion connected to the server
// in contactRegion.
func NewQueueClient(e *Ensemble, clientRegion, contactRegion netsim.Region) *QueueClient {
	e.Server(contactRegion) // validate eagerly
	return &QueueClient{ensemble: e, Region: clientRegion, Contact: contactRegion}
}

// Ensemble returns the client's ensemble.
func (c *QueueClient) Ensemble() *Ensemble { return c.ensemble }

// CreateQueue creates the queue directory through the ordered protocol: one
// request to the contact, which creates /queues and then the directory,
// each through the leader, and replies. A create lost with its leader is
// retried (created).
func (c *QueueClient) CreateQueue(queue string) error {
	r := c.record()
	r.call, r.dir = callCreate, queueDir(queue)
	return r.run(nil)
}

// Enqueue appends data to the queue. On a correctable ensemble with
// wantPrelim, the contact server first simulates the create on its local
// state and leaks the predicted element name (weak view); the committed
// result follows (strong view). Blocks until the final view is delivered.
func (c *QueueClient) Enqueue(queue string, data []byte, wantPrelim bool, onView func(QueueView)) error {
	r := c.record()
	r.enqueue(queue, data, wantPrelim)
	return r.run(onView)
}

// Dequeue removes the queue head.
//
// On a vanilla ensemble it runs the standard recipe: getChildren (the
// response carries the whole child list, whose size grows with the queue —
// Fig 10), pick the smallest, delete it; when a concurrent consumer deleted
// it first (NoNode), retry. The single final view is the removed element.
//
// On a correctable ensemble it uses the CZK fast path: the contact reads
// only the constant-size queue tail locally and (with wantPrelim) leaks it
// as the preliminary view, then submits an atomic server-side dequeue
// transaction; the committed element is the final view. Blocks until the
// final view is delivered.
func (c *QueueClient) Dequeue(queue string, wantPrelim bool, onView func(QueueView)) error {
	r := c.record()
	r.dequeue(queue, wantPrelim)
	return r.run(onView)
}

// enqueue makes r an enqueue of data: a request, simulated at the contact on
// a correctable ensemble with wantPrelim.
func (r *opRecord) enqueue(queue string, data []byte, wantPrelim bool) {
	r.request(enqueueTxn(queue, data), wantPrelim && r.e.cfg.Correctable)
}

// enqueueTxn is an enqueue's transaction. The item enters the store here:
// this one copy is what the proposal, all three servers' znodes and every
// view of the element share.
func enqueueTxn(queue string, data []byte) CreateTxn {
	return CreateTxn{Path: queueItemPrefix(queue), Data: binding.CopyIn(data), Sequential: true}
}

// dequeue makes r a dequeue: the CZK request on a correctable ensemble, the
// recipe, from its getChildren, on a vanilla one.
func (r *opRecord) dequeue(queue string, wantPrelim bool) {
	if r.e.cfg.Correctable {
		r.request(DequeueMinTxn{Dir: queueDir(queue)}, wantPrelim)
		return
	}
	r.call, r.dir = callChildren, queueDir(queue)
}

// queueTxn is the part of a queue operation that is the operation's own:
// the transaction it commits, how the contact simulates it on its local
// tree, and which element its committed result carries.
type queueTxn interface {
	Txn
	// simulate predicts the operation's element and the queue's remaining
	// length on t, or fails when t cannot answer (no such queue).
	simulate(t *Tree) (elem *QueueElement, remaining int, err error)
	// outcome is the element and remaining length of a committed result.
	outcome(res TxnResult) (*QueueElement, int)
}

// request makes r a queue operation as the CZK protocol (§5.2) runs it: the
// request hop, the contact's slot, with wantPrelim the local simulation
// flushed as the preliminary, the commit through the leader, the reply hop,
// and the final view, delivered after the preliminary. Every reply crosses
// the client link, a failed commit's too; that one carries no element and
// delivers no view.
func (r *opRecord) request(txn queueTxn, wantPrelim bool) {
	r.call, r.qtxn, r.txn, r.wantPrelim = callRequest, txn, txn, wantPrelim
}

// opCall is the call the client has in flight at its contact.
type opCall uint8

const (
	callRequest  opCall = iota // a queue transaction: the CZK enqueue and dequeue, the vanilla enqueue
	callChildren               // the recipe's getChildren of the queue
	callData                   // the recipe's getData of the head
	callDelete                 // the recipe's delete of the head
	callCreate                 // CreateQueue
)

// served is the contact's work on the call, once its slot is done.
func (r *opRecord) served() {
	switch r.call {
	case callRequest:
		if r.wantPrelim {
			r.simulate()
		}
		r.forward()
	case callChildren:
		// The whole child list crosses the client link.
		r.children, r.res.Err = r.contact.tree.Children(r.dir)
		r.reply(childrenResponseSize(r.children))
	case callData:
		if r.data, r.res.Err = r.contact.tree.Get(r.path); r.res.Err != nil {
			r.reply(responseSize(4))
			return
		}
		r.reply(responseSize(len(r.data)))
	case callDelete:
		r.txn = DeleteTxn{Path: r.path}
		r.forward()
	case callCreate:
		// The /queues parent, through the ordered protocol: once it exists
		// the create fails fast (no zxid, no broadcast). Not Bootstrap, whose
		// jump of every server's applied watermark would make followers
		// discard committed transactions still on the wire.
		r.create("/queues")
	}
}

// committed is where the forward ends, once the contact has applied its
// commit: a request replies to its client, with the committed element
// unless the commit failed, in which case the reply carries no element; the
// recipe's delete replies with its status; CreateQueue goes on (created).
func (r *opRecord) committed() {
	switch r.call {
	case callRequest:
		var elem *QueueElement
		remaining := 0
		if r.res.Err == nil {
			elem, remaining = r.qtxn.outcome(r.res)
		}
		r.final = QueueView{Element: elem, Remaining: remaining, Level: core.LevelStrong, Final: true, Zxid: stamp(r.epoch, r.zxid)}
		r.reply(responseSize(elementPayload(elem)))
	case callDelete:
		r.reply(responseSize(4))
	case callCreate:
		r.created()
	}
}

// replied is the client's turn, once the contact's reply has arrived. A
// request's final view waits for the preliminary, but only if the
// preliminary left (Transport.Send): jitter may let it overtake. The
// recipe goes on to its next call, again from getChildren when the head was
// removed under it — the contention cost of the client-side recipe — and
// ends on a delete it won, an empty queue or an error.
func (r *opRecord) replied() {
	switch r.call {
	case callRequest:
		if r.delivered != nil && r.left {
			r.state = opOrdered
			r.delivered.Then(r.step)
			return
		}
	case callChildren:
		if r.res.Err != nil {
			break
		}
		if len(r.children) == 0 {
			r.final = QueueView{Level: core.LevelStrong, Final: true, Zxid: r.contact.version()}
			break
		}
		r.head = r.children[0]
		r.path = r.dir + "/" + r.head
		r.ask(callData)
		return
	case callData:
		if r.res.Err != nil {
			r.ask(callChildren)
			return
		}
		r.ask(callDelete)
		return
	case callDelete:
		if errors.Is(r.res.Err, ErrNoNode) {
			r.ask(callChildren)
			return
		}
		if r.res.Err == nil {
			r.final = QueueView{
				Element:   &QueueElement{Name: r.head, Seq: seqOf(r.head), Data: r.data},
				Remaining: len(r.children) - 1,
				Level:     core.LevelStrong,
				Final:     true,
				Zxid:      stamp(r.epoch, r.zxid),
			}
		}
	}
	r.finish()
}

// create forwards the create of path.
func (r *opRecord) create(path string) {
	r.path, r.txn, r.retried = path, CreateTxn{Path: path}, false
	r.forward()
}

// created is a create's end. It is forwarded again after an ErrLeaderLost,
// as ZooKeeper's recipes retry a create after a lost connection: the
// contact converges on the leader that has won. A create that failed that
// way may have taken effect, so a retry that finds the node reports
// success. The directory's create follows /queues', whose outcome does not
// matter, and its outcome is CreateQueue's.
func (r *opRecord) created() {
	switch {
	case errors.Is(r.res.Err, ErrLeaderLost):
		r.retried = true
		r.forward()
		return
	case r.retried && errors.Is(r.res.Err, ErrNodeExists):
		r.res.Err = nil
	}
	if r.path != r.dir {
		r.create(r.dir)
		return
	}
	r.reply(responseSize(len(r.dir)))
}

// simulate predicts the name a sequential create of x would get on t.
func (x CreateTxn) simulate(t *Tree) (*QueueElement, int, error) {
	seq, err := t.NextSeq(parentOf(x.Path))
	if err != nil {
		return nil, 0, err
	}
	return &QueueElement{Name: keys.Padded(baseOf(x.Path), int64(seq), 10), Seq: seq, Data: x.Data}, 0, nil
}

// outcome is the created element.
func (x CreateTxn) outcome(res TxnResult) (*QueueElement, int) {
	name := baseOf(res.CreatedPath)
	return &QueueElement{Name: name, Seq: seqOf(name), Data: x.Data}, 0
}

// simulate reads the head x would remove from t and the count behind it:
// the constant-size tail read of the CZK dequeue.
func (x DequeueMinTxn) simulate(t *Tree) (*QueueElement, int, error) {
	name, data, count, err := t.FirstChild(x.Dir)
	if err != nil || name == "" {
		return nil, 0, err
	}
	return &QueueElement{Name: name, Seq: seqOf(name), Data: data}, count - 1, nil
}

// outcome is the removed head, the one element of the final view, and what
// is left behind it.
func (x DequeueMinTxn) outcome(res TxnResult) (*QueueElement, int) {
	if res.Head.Name == "" {
		return nil, 0
	}
	head := res.Head
	return &head, res.Remaining
}
