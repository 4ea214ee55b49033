package zk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// The straight-line protocol opRecord replaced, kept as its reference: an
// actor per operation that blocks at every hop, server slot and wait. It
// follows the same leadership rule as the record: a contact forwards to the
// leader it has heard of, every forward is re-sent to the leader of each
// newer epoch its contact hears of before the forward lands — the re-sent
// attempt on an actor of its own, which carries the operation on from there
// — and a superseded attempt is discarded where it lands. An operation ends
// in done, on whichever actor carries it then; a blocking caller waits on
// an event done fires.

// actorResends and actorBlockingResends count the forwards the reference
// has re-sent: the binding's operations' and the blocking calls'.
var actorResends, actorBlockingResends int

// actorSubmit is SubmitOperation as an actor.
func (b *Binding) actorSubmit(op binding.Operation, levels core.Levels, cb binding.Callback) {
	qc := b.qc
	clock := qc.ensemble.tr.Clock()
	wantWeak := levels.Contains(core.LevelWeak)
	wantStrong := levels.Contains(core.LevelStrong)
	if !wantWeak && !wantStrong {
		clock.RunAfter(0, func() { cb(binding.Result{Err: fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, levels)}) })
		return
	}
	clock.Go(func() {
		answered := false
		emit := func(v QueueView) {
			level := v.Level
			switch {
			case wantWeak && wantStrong:
			case wantStrong:
				level = core.LevelStrong
			default:
				if answered {
					return
				}
				answered = true
				level = core.LevelWeak
			}
			cb(binding.Result{Value: itemOf(v), Level: level, Version: v.Zxid})
		}
		done := func(err error) {
			if err != nil && !answered {
				cb(binding.Result{Err: err})
			}
		}
		switch o := op.(type) {
		case binding.Enqueue:
			qc.actorEnqueue(o.Queue, o.Item, wantWeak, &actorResends, emit, done)
		case binding.Dequeue:
			qc.actorDequeue(o.Queue, wantWeak, &actorResends, emit, done)
		default:
			done(fmt.Errorf("%w: zk queues have no %q", binding.ErrUnsupportedOperation, op.OpName()))
		}
	})
}

// actorBlocking is a blocking call on the reference: it spawns the
// operation and waits for its end, which a re-sent attempt's actor may
// reach.
func (c *QueueClient) actorBlocking(run func(done func(error))) error {
	clock := c.ensemble.tr.Clock()
	ev := clock.NewEvent()
	var err error
	clock.Go(func() { run(func(e error) { err = e; ev.Fire() }) })
	ev.Wait()
	return err
}

// actorEnqueue is Enqueue on the actor; done takes its error. Re-sends
// count in resends.
func (c *QueueClient) actorEnqueue(queue string, data []byte, wantPrelim bool, resends *int, onView func(QueueView), done func(error)) {
	c.actorRequest(enqueueTxn(queue, data), wantPrelim && c.ensemble.cfg.Correctable, resends, onView, done)
}

// actorDequeue is Dequeue on the actor; done takes its error.
func (c *QueueClient) actorDequeue(queue string, wantPrelim bool, resends *int, onView func(QueueView), done func(error)) {
	if c.ensemble.cfg.Correctable {
		c.actorRequest(DequeueMinTxn{Dir: queueDir(queue)}, wantPrelim, resends, onView, done)
		return
	}
	c.actorRecipe(queue, resends, onView, done)
}

// process charges one message's local work on the server.
func (s *Server) process() { s.proc.Process(s.ensemble.cfg.ServiceTime) }

// actorRequest is request as straight-line code. What follows the forward
// runs on whichever actor carries its last attempt, and ends in done.
func (c *QueueClient) actorRequest(txn queueTxn, wantPrelim bool, resends *int, onView func(QueueView), done func(error)) {
	tr := c.ensemble.tr
	contact := c.ensemble.Server(c.Contact)
	tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(txn.PayloadSize()))
	contact.process()

	var flushed *netsim.Event
	left := false
	if wantPrelim {
		zxid := contact.version()
		if elem, remaining, err := txn.simulate(contact.tree); err == nil {
			delivered := tr.Clock().NewEvent()
			flushed = delivered
			left = tr.Send(c.Contact, c.Region, netsim.LinkClient, responseSize(elementPayload(elem)), func() {
				onView(QueueView{Element: elem, Remaining: remaining, Level: core.LevelWeak, Zxid: zxid})
				delivered.Fire()
			})
		}
	}

	c.ensemble.actorForward(contact, txn, resends, func(version uint64, res TxnResult) {
		var elem *QueueElement
		remaining := 0
		if res.Err == nil {
			elem, remaining = txn.outcome(res)
		}
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(elementPayload(elem)))
		if flushed != nil {
			if left {
				flushed.Wait()
			}
			flushed.Release()
		}
		if res.Err != nil {
			done(res.Err)
			return
		}
		onView(QueueView{Element: elem, Remaining: remaining, Level: core.LevelStrong, Final: true, Zxid: version})
		done(nil)
	})
}

// actorRecipe is the vanilla dequeue recipe as straight-line code, its
// delete committed through actorForward; after a lost race it starts again
// on whichever actor carries the delete's last attempt.
func (c *QueueClient) actorRecipe(queue string, resends *int, onView func(QueueView), done func(error)) {
	tr := c.ensemble.tr
	contact := c.ensemble.Server(c.Contact)
	dir := queueDir(queue)
	for {
		tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(dir)))
		contact.process()
		children, err := contact.tree.Children(dir)
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, childrenResponseSize(children))
		if err != nil {
			done(err)
			return
		}
		if len(children) == 0 {
			onView(QueueView{Level: core.LevelStrong, Final: true, Zxid: contact.version()})
			done(nil)
			return
		}
		head := children[0]
		path := dir + "/" + head
		tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(path)))
		contact.process()
		data, err := contact.tree.Get(path)
		if err != nil {
			tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(4))
			continue
		}
		tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(len(data)))
		tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(path)))
		contact.process()
		c.ensemble.actorForward(contact, DeleteTxn{Path: path}, resends, func(zxid uint64, res TxnResult) {
			tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(4))
			switch {
			case errors.Is(res.Err, ErrNoNode):
				c.actorRecipe(queue, resends, onView, done)
			case res.Err != nil:
				done(res.Err)
			default:
				onView(QueueView{
					Element:   &QueueElement{Name: head, Seq: seqOf(head), Data: data},
					Remaining: len(children) - 1,
					Level:     core.LevelStrong,
					Final:     true,
					Zxid:      zxid,
				})
				done(nil)
			}
		})
		return
	}
}

// actorCreateQueue is CreateQueue as straight-line code.
func (c *QueueClient) actorCreateQueue(queue string, resends *int, done func(error)) {
	tr := c.ensemble.tr
	contact := c.ensemble.Server(c.Contact)
	dir := queueDir(queue)
	tr.Travel(c.Region, c.Contact, netsim.LinkClient, requestSize(len(dir)))
	contact.process()
	c.actorCreate(contact, "/queues", false, resends, func(error) {
		c.actorCreate(contact, dir, false, resends, func(err error) {
			tr.Travel(c.Contact, c.Region, netsim.LinkClient, responseSize(len(dir)))
			done(err)
		})
	})
}

// actorCreate is one create of CreateQueue, again after each
// ErrLeaderLost; a retry that finds the node reports success. A retry on
// the actor that made the failed attempt loops rather than recurs.
func (c *QueueClient) actorCreate(contact *Server, path string, retried bool, resends *int, rest func(error)) {
	for {
		lost, returned := false, false
		c.ensemble.actorForward(contact, CreateTxn{Path: path}, resends, func(_ uint64, res TxnResult) {
			if !errors.Is(res.Err, ErrLeaderLost) {
				if retried && errors.Is(res.Err, ErrNodeExists) {
					res.Err = nil
				}
				rest(res.Err)
				return
			}
			if returned { // on a re-sent attempt's actor: retry from there
				c.actorCreate(contact, path, true, resends, rest)
				return
			}
			lost = true
		})
		returned = true
		if !lost {
			return
		}
		retried = true
	}
}

// actorPending is the reference's forwarder: a re-send is a closure.
type actorPending struct{ f func(to *Server) }

func (p *actorPending) resend(to *Server) { p.f(to) }

// actorForward is forward as straight-line code, its commit broadcast a
// closure per follower, ending in rest with the version and the result.
// Each attempt is one call of try: the first on the caller, a re-sent one
// on an actor of its own, counted in resends.
func (e *Ensemble) actorForward(contact *Server, txn Txn, resends *int, rest func(zxid uint64, res TxnResult)) {
	clock := e.tr.Clock()
	var attempt uint32
	var pending *actorPending
	var try func(n uint32, to *Server)
	try = func(n uint32, to *Server) {
		if n != attempt {
			return // superseded before its turn came
		}
		if contact != to {
			e.tr.Travel(contact.Region, to.Region, netsim.LinkReplica, proposalSize(txn))
			if n != attempt {
				return // superseded: discarded where it landed
			}
			contact.landed(pending)
		}
		to.proc.Process(e.cfg.ServiceTime)
		var zxid, epoch uint64
		var res TxnResult
		if !to.leads() {
			res = TxnResult{Err: ErrLeaderLost}
		} else if zxid, epoch, res = to.prepare(txn); zxid != 0 {
			var quorumSp trace.SpanID
			if e.trc != nil && e.quorum() > 0 {
				quorumSp = e.trc.Begin(e.phaseTrk[to.Region], trace.CatQuorum, "propose", "", clock.Now())
			}
			p := e.getProposal()
			p.open(to, txn, zxid, epoch)
			commits := true
			if p.need > 0 {
				for {
					decided, c := p.tally(p.acks.Get().(answer))
					if decided {
						commits = c
						break
					}
				}
			}
			if commits && p.waitTurn() {
				p.turn.Wait()
				p.turn.Release()
				p.turn = nil
				commits = !p.aborted
			}
			if commits {
				e.inv.checkCommit(e, to, zxid, epoch)
			}
			e.trc.End(quorumSp, clock.Now())
			next, refused := p.leave(), !p.aborted
			p.release()
			if commits {
				for _, region := range e.order {
					if region == to.Region || region == contact.Region {
						continue
					}
					follower := e.servers[region]
					e.tr.Send(to.Region, region, netsim.LinkReplica, commitSize(txn), func() {
						follower.deliverCommit(zxid, epoch, txn)
					})
				}
				passTurn(next)
			} else {
				lostEp := epoch
				zxid, epoch, res = 0, 0, TxnResult{Err: ErrLeaderLost}
				abortFrom(next)
				if refused {
					e.elect.stepDown(to, lostEp)
				}
			}
		}
		if contact != to {
			e.tr.Travel(to.Region, contact.Region, netsim.LinkReplica, commitSize(txn))
			if zxid != 0 {
				contact.deliverCommit(zxid, epoch, txn)
				contact.waitApplied(zxid)
			}
		}
		rest(stamp(epoch, zxid), res)
	}
	pending = &actorPending{func(to *Server) {
		attempt++
		*resends++
		n := attempt
		clock.Go(func() { try(n, to) })
	}}
	if to := contact.forwardTo(pending); to != nil {
		try(0, to)
	}
}

// waitApplied blocks until the server has applied the given zxid.
func (s *Server) waitApplied(zxid uint64) {
	if w := s.awaitApplied(zxid); w != nil {
		w.Wait()
		w.Release()
	}
}

// queueWay runs an operation one way: on the record or on the reference. A
// binding operation is submitted; a blocking call, CreateQueue's too, runs
// on its caller, an actor of its own.
type queueWay struct {
	name   string
	submit func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback)
	call   func(qc *QueueClient, op binding.Operation, wantPrelim bool, onView func(QueueView)) error
	create func(qc *QueueClient, queue string) error
}

var (
	onRecord = queueWay{
		name: "record",
		submit: func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback) {
			b.SubmitOperation(context.Background(), op, levels, cb)
		},
		call: func(qc *QueueClient, op binding.Operation, wantPrelim bool, onView func(QueueView)) error {
			if o, ok := op.(binding.Enqueue); ok {
				return qc.Enqueue(o.Queue, o.Item, wantPrelim, onView)
			}
			return qc.Dequeue(op.(binding.Dequeue).Queue, wantPrelim, onView)
		},
		create: (*QueueClient).CreateQueue,
	}
	onActor = queueWay{
		name: "actor",
		submit: func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback) {
			b.actorSubmit(op, levels, cb)
		},
		call: func(qc *QueueClient, op binding.Operation, wantPrelim bool, onView func(QueueView)) error {
			return qc.actorBlocking(func(done func(error)) {
				if o, ok := op.(binding.Enqueue); ok {
					qc.actorEnqueue(o.Queue, o.Item, wantPrelim, &actorBlockingResends, onView, done)
				} else {
					qc.actorDequeue(op.(binding.Dequeue).Queue, wantPrelim, &actorBlockingResends, onView, done)
				}
			})
		},
		create: func(qc *QueueClient, queue string) error {
			return qc.actorBlocking(func(done func(error)) { qc.actorCreateQueue(queue, &actorBlockingResends, done) })
		},
	}
)

// queueScene is everything the record and the reference must agree on.
type queueScene struct {
	log              []string
	end              time.Duration
	traffic, dropped map[string]netsim.LinkStats
	servers          []string // per server: role, epoch, watermark, slot use, queue contents
	elections        []ElectionRecord
	spans            string // the Chrome export: every span with its annotation
	parked           int
	probes           []error // per server, the post-heal probe's outcome (probed scenes)
}

// playQueueScene plays the randomized zk world of one seed, running every
// operation the given way. A world is a 3- or 5-server ensemble, CZK or
// vanilla, with jittered links and one or two worker slots per server;
// faulted attaches an injector whose schedule partitions the leader away
// (the majority elects a successor, the old leader steps down after the
// heal), partitions a contact away, and adds lossy and slow links; traced
// attaches a tracer. Clients in random regions, at random contacts, enqueue
// and dequeue — at every level set through the binding, and with and
// without a preliminary as blocking calls — on two stocked queues and one
// that does not exist until, perhaps, a blocking CreateQueue mid-run
// creates it. probed adds, at 2.5 s, one strong enqueue from every server as
// contact (TestEveryContactCommitsAfterHeal).
func playQueueScene(seed int64, faulted, traced, probed bool, way queueWay) queueScene {
	rng := rand.New(rand.NewSource(seed))
	all := []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE}
	regions := all[:3+2*rng.Intn(2)]
	pick := func() netsim.Region { return regions[rng.Intn(len(regions))] }
	ms := time.Millisecond

	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, seed)
	tr.JitterFrac = []float64{0, tr.JitterFrac, 0.5}[rng.Intn(3)]
	tr.TailMeanFrac = []float64{0, tr.TailMeanFrac, 0.3}[rng.Intn(3)]
	var inj *faults.Injector
	if faulted {
		sched := faults.NewSchedule()
		// The leader goes away early, long enough for an election.
		at, dur := time.Duration(rng.Intn(150))*ms, time.Duration(400+rng.Intn(600))*ms
		rest := regions[1:]
		sched.At(at, faults.Partition{Groups: [][]netsim.Region{regions[:1], rest}, ID: 1}).At(at+dur, faults.Heal{ID: 1})
		for n := 2 + rng.Intn(3); n > 0; n-- {
			at, dur := time.Duration(rng.Intn(900))*ms, time.Duration(20+rng.Intn(300))*ms
			a, b := pick(), pick()
			switch rng.Intn(4) {
			case 0:
				var others []netsim.Region
				for _, r := range regions {
					if r != a {
						others = append(others, r)
					}
				}
				id := 2 + rng.Intn(1000)
				sched.At(at, faults.Partition{Groups: [][]netsim.Region{{a}, others}, ID: id}).At(at+dur, faults.Heal{ID: id})
			case 1:
				sched.At(at, faults.LatencySpike{From: a, To: b, Factor: []float64{0.5, 3}[rng.Intn(2)], Duration: dur})
			default:
				sched.At(at, faults.Drop{From: a, To: b, Prob: 0.4, Duration: dur})
			}
		}
		inj = faults.Attach(tr, sched, seed)
	}
	e, err := NewEnsemble(Config{
		Regions:           regions,
		LeaderRegion:      regions[0],
		Transport:         tr,
		Correctable:       rng.Intn(4) > 0,
		Workers:           1 + rng.Intn(2),
		ServiceTime:       []time.Duration{100 * time.Microsecond, ms, 3 * ms}[rng.Intn(3)],
		HeartbeatInterval: 50 * ms,
		ElectionTimeout:   200 * ms,
	})
	if err != nil {
		panic(err)
	}
	var trc *trace.Tracer
	if traced {
		trc = trace.New()
		tr.SetTrace(trc)
		e.SetTrace(trc)
	}
	queues := []string{"q", "r", "missing"}
	e.Bootstrap(CreateTxn{Path: "/queues"})
	for _, q := range queues[:2] {
		e.Bootstrap(CreateTxn{Path: queueDir(q)})
		for i := rng.Intn(4); i > 0; i-- {
			e.Bootstrap(CreateTxn{Path: queueItemPrefix(q), Data: []byte("stock"), Sequential: true})
		}
	}

	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", clock.Now())+fmt.Sprintf(format, args...))
	}
	viewf := func(id int, level core.Level, final bool, elem *QueueElement, remaining int, zxid uint64) {
		name := "(none)"
		if elem != nil {
			name = elem.Name + "=" + string(elem.Data)
		}
		logf("op %d: %s final=%v %s remaining=%d zxid=%d", id, level, final, name, remaining, zxid)
	}
	levelSets := []core.Levels{
		{core.LevelWeak}, {core.LevelStrong}, {core.LevelWeak, core.LevelStrong}, {core.LevelWeak, core.LevelStrong},
	}
	var bindings []*Binding
	for n := 2 + rng.Intn(3); n > 0; n-- {
		bindings = append(bindings, NewBinding(NewQueueClient(e, pick(), pick())))
	}

	// Operations start on a 20 ms grid, each instant's from one driver actor
	// that submits them back to back, with a background message between
	// submissions, as in the cassandra scene; one in four is a blocking
	// call on an actor of its own, and so is the one CreateQueue.
	type submission struct {
		id     int
		b      *Binding
		op     binding.Operation
		levels core.Levels
		call   bool
		create string // the queue a CreateQueue creates
	}
	byStart := map[time.Duration][]submission{}
	nOps := 14 + rng.Intn(14)
	for id := 0; id < nOps; id++ {
		queue := queues[rng.Intn(len(queues))]
		if rng.Intn(4) > 0 {
			queue = queues[rng.Intn(2)]
		}
		var op binding.Operation = binding.Dequeue{Queue: queue}
		if rng.Intn(2) == 0 {
			op = binding.Enqueue{Queue: queue, Item: []byte(fmt.Sprintf("v%d", id))}
		}
		start := time.Duration(rng.Intn(50)) * 20 * ms
		byStart[start] = append(byStart[start], submission{
			id: id, b: bindings[rng.Intn(len(bindings))], op: op,
			levels: levelSets[rng.Intn(len(levelSets))], call: rng.Intn(4) == 0,
		})
	}
	// Mid-run, a client creates the queue that did not exist, or one that
	// does.
	createAt := time.Duration(rng.Intn(50)) * 20 * ms
	byStart[createAt] = append(byStart[createAt], submission{
		id: nOps, b: bindings[rng.Intn(len(bindings))], create: queues[2*rng.Intn(2)],
	})
	for step := 0; step < 50; step++ {
		start := time.Duration(step) * 20 * ms
		subs := byStart[start]
		if len(subs) == 0 {
			continue
		}
		clock.Go(func() {
			clock.SleepUntil(start)
			for i, sub := range subs {
				qc := sub.b.qc
				switch {
				case sub.create != "":
					logf("op %d: create %s from %s via %s", sub.id, sub.create, qc.Region, qc.Contact)
					id, queue := sub.id, sub.create
					clock.Go(func() {
						err := way.create(qc, queue)
						logf("op %d: returned %v", id, err)
					})
				case sub.call:
					logf("op %d: %s %v from %s via %s", sub.id, sub.op.OpName(), sub.levels, qc.Region, qc.Contact)
					id, op, prelim := sub.id, sub.op, sub.levels.Contains(core.LevelWeak)
					clock.Go(func() {
						err := way.call(qc, op, prelim, func(v QueueView) {
							viewf(id, v.Level, v.Final, v.Element, v.Remaining, v.Zxid)
						})
						logf("op %d: returned %v", id, err)
					})
				default:
					logf("op %d: %s %v from %s via %s", sub.id, sub.op.OpName(), sub.levels, qc.Region, qc.Contact)
					id := sub.id
					way.submit(sub.b, sub.op, sub.levels, func(r binding.Result) {
						if r.Err != nil {
							logf("op %d: error %v", id, r.Err)
							return
						}
						it := r.Value.(binding.Item)
						logf("op %d: %s %s exists=%v %q remaining=%d zxid=%d", id, r.Level, it.ID, it.Exists, it.Data, it.Remaining, r.Version)
					})
				}
				to := regions[(i+int(start/ms))%len(regions)]
				tr.Send(qc.Region, to, netsim.LinkClient, 64, func() { logf("background %s→%s", qc.Region, to) })
			}
		})
	}
	var probes []error
	if probed {
		probes = make([]error, len(regions))
		clock.RunAt(2500*ms, func() {
			for i, region := range regions {
				probes[i] = errors.New("no final")
				b := NewBinding(NewQueueClient(e, region, region))
				way.submit(b, binding.Enqueue{Queue: "q", Item: []byte("probe")}, core.Levels{core.LevelStrong}, func(r binding.Result) {
					probes[i] = r.Err
				})
			}
		})
	}
	if inj != nil {
		clock.RunAt(3*time.Second, inj.Quiesce) // every operation gets home
	}
	clock.Drain()

	res := queueScene{
		log: log, end: clock.Now(), probes: probes,
		traffic: meter.Snapshot(), dropped: meter.SnapshotDropped(),
		elections: e.Elections(),
		parked:    clock.Parked(),
	}
	for _, region := range regions {
		s := e.Server(region)
		epoch, applied := s.epochApplied()
		state := fmt.Sprintf("%s %s epoch=%d applied=%d handled=%d busy=%v", region, s.Role(), epoch, applied, s.proc.Handled(), s.proc.BusyModelTime())
		for _, q := range queues {
			kids, err := s.Tree().Children(queueDir(q))
			state += fmt.Sprintf(" %s=%v/%v", q, kids, err)
		}
		res.servers = append(res.servers, state)
	}
	if traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf, nil); err != nil {
			panic(err)
		}
		res.spans = buf.String()
	}
	return res
}

// TestForwardRecordMatchesActor is the oracle for "no event moves" of the zk
// operation record, one layer up from TestRoundTripMatchesActorLeg and the
// zk twin of cassandra's TestReadRecordMatchesActor: the same randomized
// world — 3 and 5 servers, CZK and vanilla, enqueues and dequeues at every
// level and as blocking calls, contended slots, jitter, and under faults
// leader and contact partitions with elections, drops and slow links —
// played once with the actor per operation and once with the record must
// produce the same (instant, event) log, every view with its level, element,
// remaining count and zxid, the same meter counters (dropped included), the
// same election log, server states and spans, and leave nothing parked. The
// faulted modes must re-send forwards to a newer epoch's leader, or the
// leadership rule goes untested.
func TestForwardRecordMatchesActor(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	for _, mode := range []struct {
		name            string
		faulted, traced bool
	}{
		{"fast path", false, false},
		{"traced", false, true},
		{"faulted", true, false},
		{"faulted and traced", true, true},
	} {
		var prelims, finals, drops, stalls, elections int
		resent, blockingResent := actorResends, actorBlockingResends
		for seed := int64(1); seed <= seeds; seed++ {
			want := playQueueScene(seed, mode.faulted, mode.traced, false, onActor)
			got := playQueueScene(seed, mode.faulted, mode.traced, false, onRecord)
			for i := 0; i < max(len(got.log), len(want.log)); i++ {
				a, b := "(nothing)", "(nothing)"
				if i < len(want.log) {
					a = want.log[i]
				}
				if i < len(got.log) {
					b = got.log[i]
				}
				if a != b {
					t.Fatalf("%s, seed %d: logs part at event %d:\nactor:  %s\nrecord: %s", mode.name, seed, i, a, b)
				}
			}
			if got.spans != want.spans {
				t.Fatalf("%s, seed %d: span lists differ:\nactor:\n%s\nrecord:\n%s", mode.name, seed, want.spans, got.spans)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: same log and spans, but\nactor:  %+v\nrecord: %+v", mode.name, seed,
					[]any{want.end, want.traffic, want.dropped, want.servers, want.elections, want.parked},
					[]any{got.end, got.traffic, got.dropped, got.servers, got.elections, got.parked})
			}
			if got.parked != 0 {
				t.Fatalf("%s, seed %d: %d parked after Drain", mode.name, seed, got.parked)
			}
			for _, line := range got.log {
				if strings.Contains(line, ": weak ") {
					prelims++
				}
				if strings.Contains(line, ": strong ") {
					finals++
				}
			}
			drops += int(got.dropped[netsim.LinkClient].Messages + got.dropped[netsim.LinkReplica].Messages)
			stalls += strings.Count(got.spans, `"detail":"stall"`)
			elections += len(got.elections)
		}
		resent, blockingResent = actorResends-resent, actorBlockingResends-blockingResent
		t.Logf("%s: %d scenes, %d preliminary and %d final views, %d drops, %d stalls, %d elections, %d re-sent forwards, %d of blocking calls",
			mode.name, seeds, prelims, finals, drops, stalls, elections, resent, blockingResent)
		if prelims == 0 || finals == 0 {
			t.Errorf("%s: %d preliminary and %d final views in %d scenes, want some of each", mode.name, prelims, finals, seeds)
		}
		if mode.faulted && (drops == 0 || elections == 0 || resent == 0 || blockingResent == 0) {
			t.Errorf("%s: %d drops, %d elections, %d re-sent forwards and %d of blocking calls in %d scenes, want some of each",
				mode.name, drops, elections, resent, blockingResent, seeds)
		}
		if mode.faulted && mode.traced && stalls == 0 {
			t.Errorf("%s: no span was annotated stall in %d scenes", mode.name, seeds)
		}
	}
}

// TestEveryContactCommitsAfterHeal is eventual leadership, checked from
// the client side: in each faulted scene of TestForwardRecordMatchesActor,
// whose faults have all healed by ~1.2 s, a strong enqueue from every server
// as contact at 2.5 s — heartbeats and election timers still running, the
// Quiesce at 3 s — must commit. A server left at an epoch above the live
// leader's ignores its heartbeats and refuses its proposals, and a contact
// that forwards to a leader of an old epoch fails with ErrLeaderLost; either
// shows here as a failed probe.
func TestEveryContactCommitsAfterHeal(t *testing.T) {
	probes, failed := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		got := playQueueScene(seed, true, false, true, onRecord)
		for i, err := range got.probes {
			probes++
			if err != nil {
				failed++
				t.Errorf("seed %d: the probe from server %d of %d: %v", seed, i, len(got.probes), err)
			}
		}
	}
	t.Logf("%d of %d probes failed", failed, probes)
}

// leaderCut is a netsim.Interceptor that stalls every replica message the
// leader sends until healed is set, and delivers everything else.
type leaderCut struct {
	leader  netsim.Region
	healed  bool
	changed *netsim.Event
}

func (c *leaderCut) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if !c.healed && from == c.leader && class == netsim.LinkReplica {
		return netsim.VerdictStall, 1
	}
	return netsim.VerdictDeliver, 1
}

func (c *leaderCut) Changed() *netsim.Event { return c.changed }

// TestForwardRecordStrandedIsParked: liveness survives the move. An enqueue
// whose proposal cannot leave the leader is no goroutine any more, but its
// three waits — the two follower legs' on the fault transition, the
// record's on the acks — still count as parked once the clock has drained,
// as the actor's did, and the enqueue completes after the heal.
func TestForwardRecordStrandedIsParked(t *testing.T) {
	for _, way := range []queueWay{onActor, onRecord} {
		e, _, clock := newTestEnsemble(t, true, netsim.IRL)
		e.Bootstrap(CreateTxn{Path: "/queues"})
		e.Bootstrap(CreateTxn{Path: "/queues/q"})
		cut := &leaderCut{leader: netsim.IRL, changed: clock.NewEvent()}
		e.tr.SetInterceptor(cut)
		b := NewBinding(NewQueueClient(e, netsim.IRL, netsim.FRK))
		var views []binding.Result
		before := clock.Spawned()
		way.submit(b, binding.Enqueue{Queue: "q", Item: []byte("x")}, core.Levels{core.LevelWeak, core.LevelStrong}, func(r binding.Result) {
			views = append(views, r)
		})
		clock.Drain()
		if n := clock.Parked(); n != 3 {
			t.Fatalf("%s: Parked() = %d after Drain, want the two stalled legs and the enqueue waiting for them", way.name, n)
		}
		if len(views) != 1 || views[0].Level != core.LevelWeak {
			t.Fatalf("%s: the stranded enqueue delivered %v, want its preliminary alone", way.name, views)
		}
		cut.healed = true
		cut.changed.Fire()
		clock.Drain()
		if n := clock.Parked(); n != 0 {
			t.Errorf("%s: Parked() = %d once the leader's links healed, want 0", way.name, n)
		}
		if len(views) != 2 || views[1].Level != core.LevelStrong || views[1].Value.(binding.Item).ID != views[0].Value.(binding.Item).ID {
			t.Errorf("%s: after the heal the enqueue delivered %v, want the final of the predicted element too", way.name, views)
		}
		spawned := clock.Spawned() - before
		if want := map[string]uint64{"actor": 1, "record": 0}[way.name]; spawned != want {
			t.Errorf("%s: the enqueue started %d actors, want %d", way.name, spawned, want)
		}
	}
}

// TestCountGateFaultedQueueOps: 200 CZK operations through the client
// library — enqueues and dequeues at two contacts while the leader is
// partitioned away, the majority elects a successor, operations time out
// and the old leader rejoins — start no actor at all.
func TestCountGateFaultedQueueOps(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	clock.RunAt(start+300*time.Millisecond, func() {
		inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}})
	})
	clock.RunAt(start+4*time.Second, func() { inj.Apply(faults.Heal{}) })
	const clients, each = 4, 50
	ops, failed := 0, 0
	g := clock.NewGroup()
	for i := 0; i < clients; i++ {
		contact := []netsim.Region{netsim.IRL, netsim.VRG}[i%2]
		c := binding.NewClient(NewBinding(NewQueueClient(e, contact, contact)))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for n := 0; n < each; n++ {
				clock.SleepUntil(start + time.Duration(n)*100*time.Millisecond)
				var op binding.OperationFor[binding.Item] = binding.Dequeue{Queue: "q"}
				if (n+i)%2 == 0 {
					op = binding.Enqueue{Queue: "q", Item: []byte{byte(n)}}
				}
				if _, err := invoke(c, op); err != nil {
					failed++
				}
				ops++
			}
		})
	}
	before := clock.Spawned()
	g.Wait()
	inj.Quiesce()
	clock.Drain()
	if n := clock.Spawned() - before; n != 0 {
		t.Errorf("%d CZK operations started %d actors, want 0", ops, n)
	}
	if ops != clients*each || failed == 0 || len(e.Elections()) == 0 {
		t.Errorf("%d operations, %d failed, elections %v: want %d, some timed out across an election", ops, failed, e.Elections(), clients*each)
	}
	if n := clock.Parked(); n != 0 {
		t.Errorf("%d parked after Drain", n)
	}
}

// TestClosedOperationLeavesNoTimer plays TestCountGateFaultedQueueOps's
// faulted scene: an operation that closes stops its deadline. Once every
// operation has closed, the clock's heap holds no operation deadline — only
// the ensemble's heartbeat and election timers and the injector's. At the
// scene's 500 ms OpTimeout some operations time out (the failing path
// stops its timer too); at zk's default 5 s none does, and after Quiesce
// the drain ends before the last operation's start plus OpTimeout — before
// the last close plus OpTimeout a fortiori — where that operation's
// deadline used to keep the clock running. (At 500 ms the election timers
// armed before Quiesce outlast that bound.)
func TestClosedOperationLeavesNoTimer(t *testing.T) {
	for _, opTimeout := range []time.Duration{500 * time.Millisecond, 5 * time.Second} {
		t.Run(opTimeout.String(), func(t *testing.T) { closedOperationLeavesNoTimer(t, opTimeout) })
	}
}

func closedOperationLeavesNoTimer(t *testing.T, opTimeout time.Duration) {
	e, inj, clock := faultedEnsemble(t, opTimeout)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	clock.RunAt(start+300*time.Millisecond, func() {
		inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}})
	})
	clock.RunAt(start+4*time.Second, func() { inj.Apply(faults.Heal{}) })
	const clients, each = 4, 50
	var lastStart, lastClose time.Duration
	failed := 0
	g := clock.NewGroup()
	for i := 0; i < clients; i++ {
		contact := []netsim.Region{netsim.IRL, netsim.VRG}[i%2]
		c := binding.NewClient(NewBinding(NewQueueClient(e, contact, contact)))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for n := 0; n < each; n++ {
				clock.SleepUntil(start + time.Duration(n)*100*time.Millisecond)
				var op binding.OperationFor[binding.Item] = binding.Dequeue{Queue: "q"}
				if (n+i)%2 == 0 {
					op = binding.Enqueue{Queue: "q", Item: []byte{byte(n)}}
				}
				lastStart = max(lastStart, clock.Now())
				if _, err := invoke(c, op); err != nil {
					failed++
				}
				lastClose = max(lastClose, clock.Now())
			}
		})
	}
	g.Wait()
	deadlines, pending := heapTimers(clock)
	if deadlines != 0 {
		t.Errorf("%d operation deadlines pending once every operation closed, want 0", deadlines)
	}
	if servers := len(e.Config().Regions); pending > 2*servers+1 {
		t.Errorf("%d timers pending once every operation closed, want at most a heartbeat and an election timer per server and the injector's", pending)
	}
	inj.Quiesce()
	clock.Drain()
	switch faultedTimeout := opTimeout < time.Second; {
	case faultedTimeout && failed == 0:
		t.Errorf("no operation failed: the scene must time some out")
	case !faultedTimeout && clock.Now() >= lastStart+opTimeout:
		t.Errorf("Drain returned at %v, want before the last start (%v) plus OpTimeout; the last close was at %v",
			clock.Now(), lastStart, lastClose)
	}
}

// heapTimers counts the clock's pending timer entries and, of those, the
// cancellable Timers: the operation deadlines and retry backoffs of the
// client library, their only user. The clock shows its heap to netsim's
// own tests alone, so this reads it by reflection; the caller holds the
// token, so nothing moves it meanwhile.
func heapTimers(clock *netsim.VirtualClock) (timers, all int) {
	heap := reflect.ValueOf(clock).Elem().FieldByName("timers").FieldByName("a")
	for i := 0; i < heap.Len(); i++ {
		if !heap.Index(i).FieldByName("t").IsNil() {
			timers++
		}
	}
	return timers, heap.Len()
}
