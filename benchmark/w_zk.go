package main

import (
	"context"
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// ---- zk_queue_failover --------------------------------------------------

const (
	// The linearizability checker decides histories of at most 512
	// operations per object, so the traffic is spread over many queues with
	// a few hundred operations each rather than a few busy ones.
	zkQueues   = 96
	zkMeasured = 33 * time.Second
	zkWarmup   = 15 * time.Second
	// Producers enqueue every zkPeriod on a fixed schedule; the consumer of
	// the same queue dequeues at 4/5 of that rate, so queues stay short
	// without running dry.
	zkPeriod = 180 * time.Millisecond
	// The election machinery: a follower that hears no heartbeat for its
	// (staggered) election timeout starts an election.
	zkHeartbeat       = 125 * time.Millisecond
	zkElectionTimeout = 500 * time.Millisecond
	// The leader is severed at 40% of the measured horizon and rejoins
	// zkOutage later. The clients' schedules skip the zkGuard (longer than
	// any operation) before the cut, so that no operation is in flight at
	// the old leader when it goes: such an operation either times out, and
	// an ambiguous dequeue makes the linearizability search exhaust its
	// budget, or (with a time-out longer than the outage, as here) is
	// acknowledged by the deposed leader after the heal, and the recorded
	// history is then not linearizable. Traffic carries on from the cut
	// itself: an operation due before the majority has elected waits at
	// its contact until the heal (and holds up its session's later ones),
	// one due after the election commits on the two-server quorum.
	zkOutage    = 4 * zkElectionTimeout
	zkGuard     = 500 * time.Millisecond
	zkOpTimeout = 5 * time.Second
)

type zkClient struct {
	sess    *binding.Session
	queue   string
	produce bool
	period  time.Duration
}

type zkWorld struct {
	f        *fabric
	ensemble *zk.Ensemble
	inj      *faults.Injector
	clients  []zkClient
	rec      *history.Recorder
	log      *opLog
	span     time.Duration
	limit    time.Duration
	floor    int64
	faultAt  time.Duration // no operation is due in [faultAt-zkGuard, faultAt)
	item     []byte
	mark     fabricMark
}

func setupZK(seed int64, scale float64, traced bool) (world, error) {
	f := newFabric(seed, traced)
	w := &zkWorld{f: f, rec: history.NewRecorder(), log: &opLog{}, item: payload(64),
		span: scaled(zkMeasured, scale), limit: 200 * time.Millisecond, floor: int64(minFinals * scale)}
	warm := scaled(zkWarmup, scale)
	w.faultAt = warm + w.span*2/5
	sched := faults.NewSchedule().
		At(w.faultAt, faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}}).
		At(w.faultAt+zkOutage, faults.Heal{})
	w.inj = faults.Attach(f.tr, sched, seed+3)
	e, err := zk.NewEnsemble(zk.Config{
		Regions:           []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion:      netsim.FRK,
		Transport:         f.tr,
		Correctable:       true,
		Workers:           serverWorkers,
		ServiceTime:       time.Millisecond,
		OpTimeout:         zkOpTimeout,
		HeartbeatInterval: zkHeartbeat,
		ElectionTimeout:   zkElectionTimeout,
	})
	if err != nil {
		return nil, err
	}
	if f.trc != nil {
		e.SetTrace(f.trc)
	}
	w.ensemble = e
	// Every client sits on the majority side, contacting a follower that
	// survives the partition: IRL and VRG alternate.
	contacts := []netsim.Region{netsim.IRL, netsim.VRG}
	admin := zk.NewQueueClient(e, netsim.IRL, netsim.IRL)
	for q := 0; q < zkQueues; q++ {
		queue := fmt.Sprintf("q-%02d", q)
		if err := admin.CreateQueue(queue); err != nil {
			return nil, fmt.Errorf("creating %s: %w", queue, err)
		}
		for role := 0; role < 2; role++ {
			contact := contacts[(q+role)%len(contacts)]
			label := fmt.Sprintf("%s-%d", queue, role)
			opts := []binding.Option{binding.WithObserver(w.rec), binding.WithLabel(label)}
			if f.trc != nil {
				opts = append(opts, binding.WithTracer(f.trc))
			}
			bc := binding.NewClient(zk.NewBinding(zk.NewQueueClient(e, contact, contact)), opts...)
			c := zkClient{sess: binding.NewSession(bc), queue: queue, produce: role == 0, period: zkPeriod}
			if !c.produce {
				c.period = zkPeriod * 5 / 4
			}
			w.clients = append(w.clients, c)
		}
	}
	w.run(warm)
	return w, nil
}

// run drives every client on its fixed schedule for span of model time,
// skipping the guard before the cut. A client is one sequential actor
// (sessions are per logical actor): when an operation outlasts its slot
// the following ones start late, and each is still timed from the instant
// it was due.
func (w *zkWorld) run(span time.Duration) {
	clock := w.f.clock
	begin := clock.Now()
	ctx := context.Background()
	g := clock.NewGroup()
	for i := range w.clients {
		c := &w.clients[i]
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for due := begin; due < begin+span; due += c.period {
				if due >= w.faultAt-zkGuard && due < w.faultAt {
					continue
				}
				clock.SleepUntil(due)
				if c.produce {
					w.log.add(timed(clock, "enqueue", due, clock.Now(), c.sess.Enqueue(ctx, c.queue, w.item)))
				} else {
					w.log.add(timed(clock, "dequeue", due, clock.Now(), c.sess.Dequeue(ctx, c.queue)))
				}
			}
		})
	}
	g.Wait()
}

func (w *zkWorld) measure() result {
	w.mark = w.f.mark()
	w.log.start(1 << 16)
	w.run(w.span)
	w.inj.Quiesce()
	w.f.clock.Drain()
	m := summarize(w.log.ops, w.limit, w.span, w.f.bytesOnWire()-w.mark.bytes)
	out := result{model: m, ops: w.log.ops, detail: checkFloor(w.log.ops, m, w.floor)}
	ops := w.rec.Ops()
	vs := history.CheckSessionGuarantees(ops)
	lin, inconclusive := history.CheckQueues(ops, 0)
	vs = append(vs, lin...)
	out.violations, out.inconclusive = len(vs)+w.rec.Collisions(), len(inconclusive)
	if out.detail == "" {
		out.detail = historyDetail(vs, inconclusive)
	}
	if out.detail == "" && len(w.ensemble.Elections()) == 0 {
		out.detail = "zk.elections: the severed leader was never replaced"
	}
	return out
}

func (w *zkWorld) layers(res result) map[string]float64 {
	out := w.f.since(w.mark, w.mark.at+w.span, 3*serverWorkers).layers(res.model.ok)
	out["history.ops_recorded"] = float64(w.rec.Len())
	out["history.violations"] = float64(res.violations)
	out["history.inconclusive"] = float64(res.inconclusive)
	elections := w.ensemble.Elections()
	out["zk.elections"] = float64(len(elections))
	// Time to recovery, as internal/bench's failover experiment defines
	// it: the fault's election is the first won at or after it.
	for _, rec := range elections {
		if rec.At >= w.faultAt {
			out["zk.ttr_ms"] = ms(rec.At - w.faultAt)
			break
		}
	}
	// Between the cut and the first final view after it, clients see
	// preliminary views only.
	firstFinal, prelims := w.mark.at+w.span, 0
	for _, op := range res.ops {
		if op.due < w.faultAt {
			continue
		}
		firstFinal = min(firstFinal, op.due+op.final)
		if at := op.due + op.prelim; op.hasPrelim && at < w.faultAt+zkOutage {
			prelims++
		}
	}
	out["zk.prelim_only_window_ms"] = ms(firstFinal - w.faultAt)
	out["zk.prelims_in_outage"] = float64(prelims)
	return out
}
