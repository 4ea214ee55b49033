package zk

import (
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
	// last-applied zxid for preliminary (locally simulated) views. It is
	// the binding's per-queue version token.
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
// directly only where nothing can stall them.
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
	_, _ = c.ensemble.ForwardAndCommit(contact, CreateTxn{Path: "/queues"})
	_, res := c.ensemble.ForwardAndCommit(contact, CreateTxn{Path: dir})
	tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(len(dir)))
	return res.Err
}

// Enqueue appends data to the queue. On a correctable ensemble with
// wantPrelim, the contact server first simulates the create on its local
// state and leaks the predicted element name (weak view); the committed
// result follows (strong view). Blocks until the final view is delivered.
func (c *QueueClient) Enqueue(queue string, data []byte, wantPrelim bool, onView func(QueueView)) error {
	wantPrelim = wantPrelim && c.ensemble.cfg.Correctable
	tr := c.ensemble.tr
	clock := tr.Clock()
	contact := c.ensemble.Server(c.Contact)
	prefix := queueItemPrefix(queue)
	// The item enters the store here: this one copy is what the proposal,
	// all three servers' znodes and every view of the element share.
	data = binding.CopyIn(data)

	tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(prefix)+len(data)))
	contact.process()

	var prelimDelivered *netsim.Event
	prelimLeft := false
	if wantPrelim {
		// Local simulation: predict the sequence number from local state.
		prelimZxid := contact.LastApplied()
		seq, err := contact.tree.NextSeq(queueDir(queue))
		if err == nil {
			prelim := &QueueElement{Name: keys.Padded("q-", int64(seq), 10), Seq: seq, Data: data}
			// The leaked preliminary rides back as a callback-timer message:
			// no goroutine per flush.
			prelimDelivered = clock.NewEvent()
			prelimLeft = tr.Send(c.Contact, c.Region, netsim.LinkClient, responseSize(elementPayload(prelim)), func() {
				onView(QueueView{Element: prelim, Level: core.LevelWeak, Zxid: prelimZxid})
				prelimDelivered.Fire()
			})
		}
	}

	zxid, res := c.ensemble.ForwardAndCommit(contact, CreateTxn{Path: prefix, Data: data, Sequential: true})
	if res.Err != nil {
		netsim.AwaitFlush(prelimDelivered, prelimLeft)
		return res.Err
	}
	name := baseOf(res.CreatedPath)
	elem := &QueueElement{Name: name, Seq: seqOf(name), Data: data}

	tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(elementPayload(elem)))
	netsim.AwaitFlush(prelimDelivered, prelimLeft)
	onView(QueueView{Element: elem, Level: core.LevelStrong, Final: true, Zxid: zxid})
	return nil
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
		return c.dequeueCZK(queue, wantPrelim, onView)
	}
	return c.dequeueRecipe(queue, onView)
}

func (c *QueueClient) dequeueCZK(queue string, wantPrelim bool, onView func(QueueView)) error {
	tr := c.ensemble.tr
	clock := tr.Clock()
	contact := c.ensemble.Server(c.Contact)
	dir := queueDir(queue)

	tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(dir)))
	contact.process()

	var prelimDelivered *netsim.Event
	prelimLeft := false
	var prelim *QueueElement
	prelimRemaining := 0
	if wantPrelim {
		// Constant-size tail read on local state, simulating the dequeue.
		prelimZxid := contact.LastApplied()
		name, data, count, err := contact.tree.FirstChild(dir)
		if err == nil {
			if name != "" {
				prelim = &QueueElement{Name: name, Seq: seqOf(name), Data: data}
			}
			prelimRemaining = count - 1
			if prelimRemaining < 0 {
				prelimRemaining = 0
			}
			prelimDelivered = clock.NewEvent()
			prelimLeft = tr.Send(c.Contact, c.Region, netsim.LinkClient, responseSize(elementPayload(prelim)), func() {
				onView(QueueView{Element: prelim, Remaining: prelimRemaining, Level: core.LevelWeak, Zxid: prelimZxid})
				prelimDelivered.Fire()
			})
		}
	}

	zxid, res := c.ensemble.ForwardAndCommit(contact, DequeueMinTxn{Dir: dir})
	if res.Err != nil {
		netsim.AwaitFlush(prelimDelivered, prelimLeft)
		return res.Err
	}
	tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(elementPayload(res.Element)))
	netsim.AwaitFlush(prelimDelivered, prelimLeft)
	onView(QueueView{
		Element:   res.Element,
		Remaining: res.Remaining,
		Level:     core.LevelStrong,
		Final:     true,
		Zxid:      zxid,
	})
	return nil
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
		if err != nil {
			return err
		}
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, childrenResponseSize(children))
		if len(children) == 0 {
			onView(QueueView{Element: nil, Remaining: 0, Level: core.LevelStrong, Final: true,
				Zxid: contact.LastApplied()})
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
		zxid, res := c.ensemble.ForwardAndCommit(contact, DeleteTxn{Path: path})
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(4))
		if res.Err != nil {
			// Another consumer won the race (NoNode): retry from the top —
			// this is the contention cost of the client-side recipe.
			continue
		}
		count := len(children) - 1
		onView(QueueView{
			Element:   &QueueElement{Name: head, Seq: seqOf(head), Data: data},
			Remaining: count,
			Level:     core.LevelStrong,
			Final:     true,
			Zxid:      zxid,
		})
		return nil
	}
}
