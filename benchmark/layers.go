package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"correctables/internal/apps/adserver"
	"correctables/internal/apps/tickets"
	"correctables/internal/apps/twissandra"
	"correctables/internal/bench"
	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/causal"
	"correctables/internal/chain"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/load"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ring"
	"correctables/internal/trace"
	"correctables/internal/ycsb"
	"correctables/internal/zk"
)

// The micro-drivers: the host cost of one public call of each layer,
// measured in isolation. A driver builds its fixture, then times n calls
// between sw.start and sw.stop; the runner grows n until a timing lasts
// its target (microTarget in a run) and reports the minimum of microReps
// timings.

const (
	microTarget = 30 * time.Millisecond
	microReps   = 3
)

// stopwatch times the measured section of a micro-driver.
type stopwatch struct {
	t0      time.Time
	m0      runtime.MemStats
	elapsed time.Duration
	mallocs uint64
	// div converts nanoseconds per call into the driver's unit (1000 for
	// microseconds, the history length for "per operation checked", ...).
	div float64
	// count is a number the driver reports beside its time (see
	// micro.countName).
	count float64
}

func (s *stopwatch) start() {
	s.div = 1
	runtime.ReadMemStats(&s.m0)
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.elapsed = time.Since(s.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs = m.Mallocs - s.m0.Mallocs
}

// micro is one driver; name is the metric its time is reported as. once
// marks drivers whose single call is already long enough to time: they run
// microReps times with n = 1. allocsName, when set, reports the
// allocations of one call, countName the stopwatch's count.
type micro struct {
	name                  string
	allocsName, countName string
	once                  bool
	run                   func(n int, sw *stopwatch)
}

// perCall runs one driver and returns the host time (in the driver's unit)
// and the allocations of one call, and the driver's count.
func perCall(m micro, target time.Duration) (ns, allocs, count float64) {
	n := 1
	var sw stopwatch
	if !m.once {
		for {
			m.run(n, &sw)
			if sw.elapsed >= target || n >= 1<<22 {
				break
			}
			// Aim past the target so the next timing is the last.
			grow := 2.0
			if sw.elapsed > 0 {
				grow = max(2, 1.2*float64(target)/float64(sw.elapsed))
			}
			n = int(float64(n) * min(grow, 100))
		}
	}
	ns, allocs = -1, -1
	for i := 0; i < microReps; i++ {
		m.run(n, &sw)
		if v := float64(sw.elapsed.Nanoseconds()) / float64(n) / sw.div; ns < 0 || v < ns {
			ns = v
		}
		if v := float64(sw.mallocs) / float64(n); allocs < 0 || v < allocs {
			allocs = v
		}
	}
	return ns, allocs, sw.count
}

var ctxBG = context.Background()

// nullBinding answers every operation on the spot with one view per
// requested level: what is left is the client library's own cost.
type nullBinding struct {
	clock   netsim.Clock
	version uint64
}

func (b *nullBinding) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}
func (b *nullBinding) Close() error              { return nil }
func (b *nullBinding) Scheduler() core.Scheduler { return binding.SchedulerFor(b.clock) }
func (b *nullBinding) Versions() bool            { return true }

func (b *nullBinding) SubmitOperation(_ context.Context, _ binding.Operation, levels core.Levels, cb binding.Callback) {
	b.version++
	for _, l := range levels {
		cb(binding.Result{Value: []byte(nil), Level: l, Version: b.version})
	}
}

// BatchBinding: one dispatch queue, every operation batchable.
func (b *nullBinding) BatchShards() int                       { return 1 }
func (b *nullBinding) BatchKey(binding.Operation) (int, bool) { return 0, true }
func (b *nullBinding) SubmitBatch(_ int, entries []binding.BatchEntry, done func([]binding.BatchEntry)) {
	for _, e := range entries {
		b.SubmitOperation(e.Ctx, e.Op, e.Levels, e.Cb)
	}
	done(entries)
}

// openGate admits everything.
type openGate struct{}

func (openGate) Admit(string, binding.Operation) (binding.AdmissionDecision, error) {
	return binding.AdmissionAdmit, nil
}

// invokeDriver times n Invoke+Final round trips through a client built
// over a null binding.
func invokeDriver(opts func(f *fabric) (binding.Binding, []binding.Option)) func(int, *stopwatch) {
	return func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		b, o := opts(f)
		c := binding.NewClient(b, o...)
		op := binding.Get{Key: "k"}
		sw.start()
		for i := 0; i < n; i++ {
			_, _ = binding.Invoke[[]byte](ctxBG, c, op).Final(ctxBG)
		}
		sw.stop()
		f.clock.Drain()
	}
}

// microCluster is a one-shard three-replica cluster with a preloaded key.
func microCluster(f *fabric) *cassandra.Cluster {
	cluster, err := f.newCassandra(1, 1, 0)
	if err != nil {
		panic(err) // static configuration
	}
	cluster.Preload("k", payload(64))
	return cluster
}

func microEnsemble(f *fabric) *zk.Ensemble {
	e, err := zk.NewEnsemble(zk.Config{
		Regions: []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}, LeaderRegion: netsim.FRK,
		Transport: f.tr, Correctable: true, Workers: serverWorkers, ServiceTime: time.Millisecond,
		HeartbeatInterval: zkHeartbeat, ElectionTimeout: zkElectionTimeout,
	})
	if err != nil {
		panic(err) // static configuration
	}
	return e
}

// recordedHistory returns a real concurrent history for the checker
// drivers: a 1/10-size run of the sessions world or a 1/4-size run of the
// zk world.
func recordedHistory(queues bool) []history.Op {
	if queues {
		w, err := setupZK(7, 0.25, false)
		if err != nil {
			panic(err)
		}
		w.measure()
		return w.(*zkWorld).rec.Ops()
	}
	w, err := setupSessions(7, 0.1, false)
	if err != nil {
		panic(err)
	}
	w.measure()
	return w.(*sessWorld).rec.Ops()
}

// perKop times check over ops and reports microseconds per 1000 operations
// (which is nanoseconds per operation).
func perKop(ops []history.Op, sw *stopwatch, check func()) {
	sw.start()
	check()
	sw.stop()
	sw.div = float64(len(ops))
}

var micros = []micro{
	{name: "netsim.clock.runafter_ns", run: func(n int, sw *stopwatch) {
		clock := netsim.NewVirtualClock()
		noop := func() {}
		sw.start()
		for i := 0; i < n; i++ {
			clock.RunAfter(time.Duration(i%997)*time.Microsecond, noop)
		}
		clock.Drain()
		sw.stop()
	}},
	{name: "netsim.clock.handoff_ns", run: func(n int, sw *stopwatch) {
		clock := netsim.NewVirtualClock()
		g := clock.NewGroup()
		g.Add(1)
		sw.start()
		clock.Go(func() {
			defer g.Done()
			for i := 0; i < n; i++ {
				clock.Sleep(time.Microsecond)
			}
		})
		g.Wait()
		sw.stop()
	}},
	{name: "netsim.clock.queue_put_get_ns", run: func(n int, sw *stopwatch) {
		clock := netsim.NewVirtualClock()
		q, g := clock.NewQueue(), clock.NewGroup()
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for i := 0; i < n; i++ {
				q.Get()
			}
		})
		sw.start()
		for i := 0; i < n; i++ {
			q.Put(i)
		}
		g.Wait()
		sw.stop()
	}},
	{name: "netsim.transport.travel_ns", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		sw.start()
		for i := 0; i < n; i++ {
			f.tr.Travel(netsim.FRK, netsim.IRL, netsim.LinkReplica, 100)
		}
		sw.stop()
	}},
	{name: "faults.travel_idle_injector_ns", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		faults.Attach(f.tr, faults.NewSchedule(), 1)
		sw.start()
		for i := 0; i < n; i++ {
			f.tr.Travel(netsim.FRK, netsim.IRL, netsim.LinkReplica, 100)
		}
		sw.stop()
	}},
	{name: "netsim.transport.send_ns", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		noop := func() {}
		sw.start()
		for i := 0; i < n; i++ {
			f.tr.Send(netsim.FRK, netsim.IRL, netsim.LinkReplica, 100, noop)
		}
		f.clock.Drain()
		sw.stop()
	}},
	{name: "netsim.server.process_ns", run: func(n int, sw *stopwatch) {
		clock := netsim.NewVirtualClock()
		srv := netsim.NewServer(clock, serverWorkers)
		sw.start()
		for i := 0; i < n; i++ {
			srv.Process(time.Millisecond)
		}
		sw.stop()
	}},
	{name: "core.correctable_2view_ns", run: func(n int, sw *stopwatch) {
		sched := binding.SchedulerFor(netsim.NewVirtualClock())
		levels := core.Levels{core.LevelWeak, core.LevelStrong}
		sw.start()
		for i := 0; i < n; i++ {
			cor, ctrl := core.NewScheduled[int](sched, levels)
			_ = ctrl.Update(i, core.LevelWeak)
			_ = ctrl.Close(i, core.LevelStrong)
			_, _ = cor.Final(ctxBG)
		}
		sw.stop()
	}},
	{name: "core.speculate_ns", run: func(n int, sw *stopwatch) {
		clock := netsim.NewVirtualClock()
		sched := binding.SchedulerFor(clock)
		levels := core.Levels{core.LevelWeak, core.LevelStrong}
		spec := func(v core.View[int]) (int, error) { return v.Value + 1, nil }
		sw.start()
		for i := 0; i < n; i++ {
			cor, ctrl := core.NewScheduled[int](sched, levels)
			out := core.Speculate(cor, spec, nil)
			_ = ctrl.Update(i, core.LevelWeak)
			_ = ctrl.Close(i, core.LevelStrong)
			_, _ = out.Final(ctxBG)
		}
		sw.stop()
		clock.Drain()
	}},
	{name: "binding.invoke_plain_ns", allocsName: "binding.invoke_plain_allocs", run: invokeDriver(func(f *fabric) (binding.Binding, []binding.Option) {
		return &nullBinding{clock: f.clock}, nil
	})},
	{name: "binding.invoke_traced_ns", allocsName: "binding.invoke_traced_allocs", run: invokeDriver(func(f *fabric) (binding.Binding, []binding.Option) {
		return &nullBinding{clock: f.clock}, []binding.Option{binding.WithTracer(trace.New()), binding.WithLabel("c")}
	})},
	{name: "binding.invoke_governed_ns", run: invokeDriver(func(f *fabric) (binding.Binding, []binding.Option) {
		return &nullBinding{clock: f.clock}, []binding.Option{binding.WithAdmission(openGate{})}
	})},
	{name: "binding.invoke_batched_ns", allocsName: "binding.invoke_batched_allocs", run: invokeDriver(func(f *fabric) (binding.Binding, []binding.Option) {
		return binding.NewBatcher(&nullBinding{clock: f.clock}, f.clock, time.Millisecond), nil
	})},
	{name: "binding.invoke_session_ns", allocsName: "binding.invoke_session_allocs", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		sess := binding.NewSession(binding.NewClient(&nullBinding{clock: f.clock}))
		sw.start()
		for i := 0; i < n; i++ {
			_, _ = sess.Get(ctxBG, "k").Final(ctxBG)
		}
		sw.stop()
		f.clock.Drain()
	}},
	{name: "cassandra.read_r2_prelim_ns", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		c := cassandra.NewClient(microCluster(f), netsim.IRL, netsim.FRK)
		sw.start()
		for i := 0; i < n; i++ {
			_ = c.Read("k", 2, true, func(cassandra.ReadView) {})
		}
		sw.stop()
		f.clock.Drain()
	}},
	{name: "cassandra.write_w1_ns", run: cassandraWrite(1)},
	{name: "cassandra.write_w2_ns", run: cassandraWrite(2)},
	{name: "cassandra.batch_read_ns_per_item", run: func(n int, sw *stopwatch) {
		// Eight concurrent readers through one Batcher: same-window reads
		// of the one shard ride a single coordinator round.
		f := newFabric(1, false)
		b := cassandra.NewBinding(cassandra.NewClient(microCluster(f), netsim.FRK, netsim.FRK), cassandra.BindingConfig{})
		c := binding.NewClient(binding.NewBatcher(b, f.clock, time.Millisecond))
		const readers = 8
		g := f.clock.NewGroup()
		sw.start()
		for r := 0; r < readers; r++ {
			g.Add(1)
			f.clock.Go(func() {
				defer g.Done()
				for i := 0; i < (n+readers-1)/readers; i++ {
					_, _ = binding.Invoke[[]byte](ctxBG, c, binding.Get{Key: "k"}).Final(ctxBG)
				}
			})
		}
		g.Wait()
		sw.stop()
		f.clock.Drain()
	}},
	{name: "ring.shardof_ns", run: func(n int, sw *stopwatch) {
		r := ring.New(ring.Config{Shards: rampShards, Seed: 1})
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = rampKey(i)
		}
		sw.start()
		for i := 0; i < n; i++ {
			r.ShardOf(keys[i%len(keys)])
		}
		sw.stop()
	}},
	{name: "zk.enqueue_ns", run: zkQueueOp(true)},
	{name: "zk.dequeue_ns", run: zkQueueOp(false)},
	{name: "zk.election_host_us", once: true, run: func(_ int, sw *stopwatch) {
		// One leader loss on an idle ensemble: heartbeats stop reaching the
		// followers, the staggered election runs, the old leader resyncs.
		f := newFabric(1, false)
		inj := faults.Attach(f.tr, faults.NewSchedule().
			At(time.Second, faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}}).
			At(time.Second+zkOutage, faults.Heal{}), 1)
		e := microEnsemble(f)
		sw.start()
		f.clock.Sleep(2*time.Second + zkOutage)
		sw.stop()
		if len(e.Elections()) == 0 {
			panic("zk.election_host_us: no election")
		}
		inj.Quiesce()
		f.clock.Drain()
		sw.div = 1000 // reported in us
	}},
	{name: "causal.invoke_ns", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		st, err := causal.NewStore(causal.Config{Primary: netsim.FRK,
			Backups: []netsim.Region{netsim.IRL, netsim.VRG}, Transport: f.tr})
		if err != nil {
			panic(err)
		}
		st.Preload("k", payload(64))
		kv := causal.NewKV(causal.NewBinding(causal.NewClient(st, netsim.IRL)))
		sw.start()
		for i := 0; i < n; i++ {
			_, _ = kv.Get(ctxBG, "k").Final(ctxBG)
		}
		sw.stop()
		f.clock.Drain()
	}},
	{name: "chain.submit_ns", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		ch, err := chain.New(chain.Config{Transport: f.tr, Seed: 1})
		if err != nil {
			panic(err)
		}
		c := binding.NewClient(chain.NewBinding(ch, 3))
		cors := make([]*core.Correctable[chain.TxStatus], n)
		sw.start()
		for i := range cors {
			cors[i] = chain.Submit(ctxBG, c, chain.SubmitTx{ID: fmt.Sprintf("tx-%d", i)})
		}
		for _, cor := range cors {
			_, _ = cor.Final(ctxBG)
		}
		sw.stop()
		ch.Stop()
		f.clock.Drain()
	}},
	{name: "load.admit_ns", run: func(n int, sw *stopwatch) {
		clock := netsim.NewVirtualClock()
		gate := load.NewController(load.Config{Clock: clock, PerClientRate: 1e12, PerClientBurst: 1e12,
			Sample: func() time.Duration { return 0 }, MaxRate: 1e12})
		op := binding.Get{Key: "k"}
		sw.start()
		for i := 0; i < n; i++ {
			_, _ = gate.Admit("c", op)
		}
		sw.stop()
	}},
	{name: "load.bucket_take_ns", run: func(n int, sw *stopwatch) {
		b := load.NewTokenBucket(1e9, 1e9)
		sw.start()
		for i := 0; i < n; i++ {
			b.Take(time.Duration(i))
		}
		sw.stop()
	}},
	{name: "load.poisson_next_ns", run: func(n int, sw *stopwatch) {
		p := load.NewPoisson(1000, 1)
		sw.start()
		for i := 0; i < n; i++ {
			p.Next()
		}
		sw.stop()
	}},
	{name: "faults.compose_us", run: func(n int, sw *stopwatch) {
		profs, err := faults.ProfilesByName("tracks-harsh", smallUnit)
		if err != nil {
			panic(err)
		}
		sw.start()
		for i := 0; i < n; i++ {
			faults.Compose(faults.RandomTracks(int64(i), profs)...)
		}
		sw.stop()
		sw.div = 1000
	}},
	{name: "history.record_op_ns", run: func(n int, sw *stopwatch) {
		rec := history.NewRecorder()
		info := binding.OpInfo{Client: "c", Name: "get", Key: "k"}
		sw.start()
		for i := 0; i < n; i++ {
			info.ID = binding.OpID(i + 1)
			at := time.Duration(i)
			rec.OpStart(info)
			rec.OpView(info, binding.OpView{Level: core.LevelWeak, Version: uint64(i), At: at})
			rec.OpView(info, binding.OpView{Level: core.LevelStrong, Final: true, Version: uint64(i), At: at})
			rec.OpEnd(info, at, nil)
		}
		sw.stop()
	}},
	{name: "history.check_session_us_per_kop", once: true, run: func(_ int, sw *stopwatch) {
		ops := recordedHistory(false)
		perKop(ops, sw, func() { history.CheckSessionGuarantees(ops); history.CheckCrossObjectWFR(ops) })
	}},
	{name: "history.check_register_us_per_kop", once: true, run: func(_ int, sw *stopwatch) {
		ops := recordedHistory(false)
		perKop(ops, sw, func() { history.CheckRegisters(ops, 0) })
	}},
	{name: "history.check_queue_us_per_kop", once: true, run: func(_ int, sw *stopwatch) {
		ops := recordedHistory(true)
		perKop(ops, sw, func() { history.CheckQueues(ops, 0) })
	}},
	{name: "history.serialize_us_per_kop", once: true, run: func(_ int, sw *stopwatch) {
		ops := recordedHistory(false)
		perKop(ops, sw, func() { history.SerializeOps(ops) })
	}},
	{name: "trace.span_ns", run: func(n int, sw *stopwatch) {
		trc := trace.New()
		trk := trc.Track("t")
		sw.start()
		for i := 0; i < n; i++ {
			trc.End(trc.Begin(trk, trace.CatServer, "s", "", time.Duration(i)), time.Duration(i+1))
		}
		sw.stop()
	}},
	{name: "trace.chrome_export_us_per_kspan", once: true, run: func(_ int, sw *stopwatch) {
		const spans = 20000
		trc := trace.New()
		trk := trc.Track("t")
		for i := 0; i < spans; i++ {
			trc.Span(trk, trace.CatServer, "s", "", time.Duration(i), time.Duration(i+1))
		}
		sw.start()
		_ = trc.WriteChrome(io.Discard, nil) // io.Discard cannot fail
		sw.stop()
		sw.div = spans // us per 1000 spans = ns per span
	}},
	{name: "metrics.hist_record_ns", run: func(n int, sw *stopwatch) {
		h := metrics.NewHistogram()
		sw.start()
		for i := 0; i < n; i++ {
			h.Record(time.Duration(i))
		}
		sw.stop()
	}},
	{name: "metrics.hist_percentile_us", once: true, run: func(_ int, sw *stopwatch) {
		h := metrics.NewHistogram()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50000; i++ {
			h.Record(time.Duration(rng.Int63n(1e9)))
		}
		sw.start()
		h.Percentile(99)
		sw.stop()
		sw.div = 1000
	}},
	{name: "ycsb.zipf_next_ns", run: func(n int, sw *stopwatch) {
		g := ycsb.NewScrambledZipfian(adsProfiles)
		rng := rand.New(rand.NewSource(1))
		sw.start()
		for i := 0; i < n; i++ {
			g.Next(rng)
		}
		sw.stop()
	}},
	{name: "ycsb.run_overhead_ns_per_op", run: func(n int, sw *stopwatch) {
		// A DB that only lets a model millisecond pass: what remains is the
		// runner's loop, key choice and bookkeeping (plus one clock handoff).
		clock := netsim.NewVirtualClock()
		sw.start()
		res := ycsb.Run(ycsb.WorkloadB(ycsb.DistZipfian, adsProfiles, 128), sleepDB{clock}, clock,
			ycsb.Options{Threads: 1, Duration: time.Duration(n) * time.Millisecond, Seed: 1})
		sw.stop()
		sw.div = float64(max(res.Ops, 1)) / float64(n)
	}},
	{name: "apps.adserver.fetch_host_us", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		cluster := microCluster(f)
		opts := adserver.Load(cluster, adserver.LoadOptions{Profiles: 100, Ads: 500, MaxRefs: 8, AdBodySize: 600, Seed: 1})
		svc := adserver.NewService(cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{}))
		sw.start()
		for i := 0; i < n; i++ {
			_, _ = svc.FetchAdsByUserID(ctxBG, i%opts.Profiles, true)
		}
		sw.stop()
		f.clock.Drain()
		sw.div = 1000
	}},
	{name: "apps.twissandra.timeline_host_us", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		cluster := microCluster(f)
		opts := twissandra.Load(cluster, twissandra.LoadOptions{Tweets: 500, Timelines: 100, Seed: 1})
		svc := twissandra.NewService(cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{}))
		sw.start()
		for i := 0; i < n; i++ {
			_, _ = svc.GetTimeline(ctxBG, i%opts.Timelines, true)
		}
		sw.stop()
		f.clock.Drain()
		sw.div = 1000
	}},
	{name: "apps.tickets.purchase_host_us", run: func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		e := microEnsemble(f)
		tickets.Stock(e, "event", n+tickets.DefaultThreshold)
		r := tickets.NewRetailer(zk.NewBinding(zk.NewQueueClient(e, netsim.IRL, netsim.IRL)))
		sw.start()
		for i := 0; i < n; i++ {
			res, err := r.PurchaseTicket(ctxBG, "event")
			if err == nil {
				res.Assigned.Get()
			}
		}
		sw.stop()
		f.clock.Drain()
		sw.div = 1000
	}},
	{name: "bench.hunt.world_host_ms", countName: "bench.hunt.findings", once: true, run: func(_ int, sw *stopwatch) {
		const seeds = 12
		sw.start()
		res, err := bench.Hunt(bench.Config{Seed: 1}, bench.HuntOptions{Seeds: seeds, Profiles: smallProfiles, Workers: 1})
		sw.stop()
		if err != nil {
			panic(err)
		}
		sw.count = float64(len(res.Findings)) // 0 on a correct tree
		sw.div = 1e6 * float64(res.Runs)      // ms per world
	}},
	{name: "bench.capacity_quick_host_ms", once: true, run: func(_ int, sw *stopwatch) {
		sw.start()
		bench.Capacity(bench.Config{Seed: 1, Quick: true})
		sw.stop()
		sw.div = 1e6
	}},
	{name: "bench.sweep_quick_host_ms", once: true, run: func(_ int, sw *stopwatch) {
		sw.start()
		bench.Sweep(bench.Config{Seed: 1, Quick: true})
		sw.stop()
		sw.div = 1e6
	}},
}

// sleepDB is the no-op ycsb.DB of ycsb.run_overhead_ns_per_op.
type sleepDB struct{ clock netsim.Clock }

func (db sleepDB) Read(*rand.Rand, string) (ycsb.ReadOutcome, error) {
	db.clock.Sleep(time.Millisecond)
	return ycsb.ReadOutcome{FinalLatency: time.Millisecond}, nil
}

func (db sleepDB) Update(*rand.Rand, string, []byte) (time.Duration, error) {
	db.clock.Sleep(time.Millisecond)
	return time.Millisecond, nil
}

func cassandraWrite(w int) func(int, *stopwatch) {
	return func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		c := cassandra.NewClient(microCluster(f), netsim.IRL, netsim.FRK)
		val := payload(64)
		sw.start()
		for i := 0; i < n; i++ {
			_ = c.Write("k", val, w)
		}
		sw.stop()
		f.clock.Drain()
	}
}

// zkQueueOp times one kind of queue operation on a queue held at a depth
// of 32: the opposite operation runs after each timed one, outside the
// timing.
func zkQueueOp(enqueue bool) func(int, *stopwatch) {
	return func(n int, sw *stopwatch) {
		f := newFabric(1, false)
		qc := zk.NewQueueClient(microEnsemble(f), netsim.IRL, netsim.IRL)
		if err := qc.CreateQueue("q"); err != nil {
			panic(err)
		}
		item := payload(64)
		noView := func(zk.QueueView) {}
		ops := [2]func(){
			func() { _ = qc.Dequeue("q", true, noView) },
			func() { _ = qc.Enqueue("q", item, true, noView) },
		}
		for i := 0; i < 32; i++ {
			ops[1]()
		}
		timed, other := ops[0], ops[1]
		if enqueue {
			timed, other = other, timed
		}
		var elapsed time.Duration
		sw.start()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			timed()
			elapsed += time.Since(t0)
			other()
		}
		sw.stop()
		sw.elapsed = elapsed
		f.clock.Drain()
	}
}

// runMicros runs every micro-driver, timing each for at least target, and
// returns the per-layer host metrics.
func runMicros(target time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, m := range micros {
		ns, allocs, count := perCall(m, target)
		out[m.name] = ns
		if m.allocsName != "" {
			out[m.allocsName] = allocs
		}
		if m.countName != "" {
			out[m.countName] = count
		}
	}
	// The interceptor's cost on a healthy link: the same transport leg
	// with an idle injector attached, minus without.
	out["faults.intercept_ns"] = out["faults.travel_idle_injector_ns"] - out["netsim.transport.travel_ns"]
	delete(out, "faults.travel_idle_injector_ns")
	return out
}
