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
// directly only where nothing can stall them. Enqueue and the CZK Dequeue
// block their calling actor on the record the Binding runs the same
// operation on (opRecord); the vanilla recipes are actor code that commits
// through one. A preliminary view reaches onView in callback context, where
// it must not block.
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

// CreateQueue creates the queue directory through the ordered protocol.
func (c *QueueClient) CreateQueue(queue string) error {
	dir := queueDir(queue)
	tr := c.ensemble.tr
	contact := c.ensemble.Server(c.Contact)
	tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(dir)))
	contact.process()
	// Ensure the /queues parent through the ordered protocol. When it already
	// exists the create fails fast (no zxid, no broadcast), so this is an
	// idempotent no-op on every call but the first. Bootstrap must NOT be used
	// here: it force-advances every server's applied watermark, and a queue
	// can be created while protocol traffic is in flight — the jump would make
	// followers discard committed transactions still on the wire.
	_ = c.create(contact, "/queues")
	err := c.create(contact, dir)
	tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(len(dir)))
	return err
}

// create creates path through the ordered protocol, again after each
// ErrLeaderLost — by then the contact has heard of the leader that the
// failed forward's server knew — as ZooKeeper's recipes retry a create after
// a lost connection. A create that failed that way may have taken effect,
// so a retry that finds the node reports success.
func (c *QueueClient) create(contact *Server, path string) error {
	_, res := c.ensemble.forward(contact, CreateTxn{Path: path})
	for errors.Is(res.Err, ErrLeaderLost) {
		if _, res = c.ensemble.forward(contact, CreateTxn{Path: path}); errors.Is(res.Err, ErrNodeExists) {
			return nil
		}
	}
	return res.Err
}

// Enqueue appends data to the queue. On a correctable ensemble with
// wantPrelim, the contact server first simulates the create on its local
// state and leaks the predicted element name (weak view); the committed
// result follows (strong view). Blocks until the final view is delivered.
func (c *QueueClient) Enqueue(queue string, data []byte, wantPrelim bool, onView func(QueueView)) error {
	return c.request(enqueueTxn(queue, data), wantPrelim && c.ensemble.cfg.Correctable, onView)
}

// enqueueTxn is an enqueue's transaction. The item enters the store here:
// this one copy is what the proposal, all three servers' znodes and every
// view of the element share.
func enqueueTxn(queue string, data []byte) CreateTxn {
	return CreateTxn{Path: queueItemPrefix(queue), Data: binding.CopyIn(data), Sequential: true}
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
	if c.ensemble.cfg.Correctable {
		return c.request(DequeueMinTxn{Dir: queueDir(queue)}, wantPrelim, onView)
	}
	return c.dequeueRecipe(queue, onView)
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

// request is one queue operation at the contact, the CZK protocol (§5.2):
// the request hop, the contact's slot, with wantPrelim the local simulation
// flushed as the preliminary, the commit through the leader, the reply hop,
// and the final view, delivered after the preliminary. Every reply crosses
// the client link, a failed commit's too; that one carries no element and
// delivers no view. The operation is a record (opRecord): request plays its
// first step on the caller's stack, waits until the reply has reached the
// client, and then, as the actor did, holds the final view back until the
// preliminary has been delivered.
func (c *QueueClient) request(txn queueTxn, wantPrelim bool, onView func(QueueView)) error {
	e := c.ensemble
	r := e.getRecord()
	r.setRequest(c, txn, wantPrelim)
	r.onView = onView
	r.finished = e.tr.Clock().NewEvent()
	r.advance()
	r.finished.Wait()
	r.finished.Release()
	netsim.AwaitFlush(r.delivered, r.left)
	err, final := r.res.Err, r.final
	e.putRecord(r)
	if err != nil {
		return err
	}
	onView(final)
	return nil
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

// outcome is the removed head and what is left behind it.
func (x DequeueMinTxn) outcome(res TxnResult) (*QueueElement, int) {
	return res.Element, res.Remaining
}

func (c *QueueClient) dequeueRecipe(queue string, onView func(QueueView)) error {
	tr := c.ensemble.tr
	contact := c.ensemble.Server(c.Contact)
	dir := queueDir(queue)

	for {
		// getChildren: the whole child list crosses the client link.
		tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(dir)))
		contact.process()
		children, err := contact.tree.Children(dir)
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, childrenResponseSize(children))
		if err != nil {
			return err
		}
		if len(children) == 0 {
			onView(QueueView{Element: nil, Remaining: 0, Level: core.LevelStrong, Final: true,
				Zxid: contact.version()})
			return nil
		}
		head := children[0]
		path := elementPath(queue, head)

		// getData for the head element.
		tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(path)))
		contact.process()
		data, err := contact.tree.Get(path)
		if err != nil {
			// Removed under us between the two reads; retry.
			tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(4))
			continue
		}
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(len(data)))

		// delete through the ordered protocol.
		tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(path)))
		contact.process()
		version, res := c.ensemble.forward(contact, DeleteTxn{Path: path})
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(4))
		if errors.Is(res.Err, ErrNoNode) {
			// Another consumer won the race: retry from the top — this is
			// the contention cost of the client-side recipe.
			continue
		}
		if res.Err != nil {
			return res.Err
		}
		count := len(children) - 1
		onView(QueueView{
			Element:   &QueueElement{Name: head, Seq: seqOf(head), Data: data},
			Remaining: count,
			Level:     core.LevelStrong,
			Final:     true,
			Zxid:      version,
		})
		return nil
	}
}
