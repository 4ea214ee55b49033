package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/load"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/trace"
	"correctables/internal/zk"
)

// world is the one simulated deployment every driver in this package runs
// on. The paper's figure drivers use its fabric (clock, transport, meter)
// and the store constructors; the scenario experiments additionally use
// everything an experiment is made of, in the order an experiment is
// written:
//
//	fabric      newWorld: clock + transport + fault schedule + tracer
//	substrate   newCassandra / newZK (traced when the world is), gate, gauge
//	populations loop, arrive, sessions (session for a hand-written body)
//	operations  readShape, timed: always an invocation through the client
//	            library (binding.Client), never a store's protocol method
//	phases      opRecord, phaseOf, probePhases, viewStats
//	finish      run, transitions, observe
//	check       buildCheckReport (checkreport.go)
//
// Determinism contract: helpers arm timers and spawn actors in call order
// and take every seed as an argument, so an experiment's same-seed output
// is a function of the order of its own statements and nothing else
// (golden_test.go pins it).
type world struct {
	clock netsim.Clock
	meter *netsim.Meter
	tr    *netsim.Transport
	// trc/reg are the observability plane (nil unless cfg.Trace): the span
	// tracer is installed on the transport here, on stores by newCassandra /
	// newZK and on clients by session; gauges register through gauge.
	trc *trace.Tracer
	reg *trace.Registry

	// inj applies the fault schedule (nil in a fault-free world: the client
	// library bounds invocations only while an interceptor is attached).
	inj *faults.Injector
	// horizon ends the populations and the gauge sampling.
	horizon  time.Duration
	actors   *netsim.Group
	gates    []*load.Controller
	sampling bool
	// probed is the faulted world's zk ensemble, and probeQueue the queue
	// its post-heal probe enqueues into (run).
	probed     *zk.Ensemble
	probeQueue string
}

func newFabric(cfg Config) *world {
	return newFabricWith(cfg, netsim.DefaultLatencies())
}

// newFabricWith builds the fabric on an explicit latency model — the sweep
// experiment scales the paper's geography up and down; everything else runs
// on the default model.
func newFabricWith(cfg Config, lat *netsim.LatencyModel) *world {
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	w := &world{
		clock:  clock,
		meter:  meter,
		tr:     netsim.NewTransport(clock, lat, meter, cfg.Seed+1),
		actors: clock.NewGroup(),
	}
	if cfg.Trace {
		w.trc = trace.New()
		w.reg = trace.NewRegistry()
		w.tr.SetTrace(w.trc)
	}
	return w
}

// newWorld builds an experiment's world: the fabric, the fault schedule
// armed on it (nil = fault-free), and the horizon its populations run to.
// Build the world before its stores — they wire their crash-recovery hooks
// to the injector at construction.
func newWorld(cfg Config, sched *faults.Schedule, horizon time.Duration) *world {
	w := newFabric(cfg)
	w.horizon = horizon
	if sched != nil {
		w.inj = faults.Attach(w.tr, sched, cfg.Seed+3)
	}
	return w
}

// The Cassandra service model shared by every experiment: each replica
// serves reads and writes on cassandraWorkers slots of cassandraServiceTime
// each. Capacity figures (overload's nominal ops/s, capacity's utilization)
// derive from these two.
const (
	cassandraWorkers     = 4
	cassandraServiceTime = 2 * time.Millisecond
	// cassandraCapacityOps is one coordinator's nominal service capacity.
	cassandraCapacityOps = cassandraWorkers * float64(time.Second/cassandraServiceTime)
)

// cassandraOpts selects the store variant under test.
type cassandraOpts struct {
	regions     []netsim.Region
	correctable bool
	confirmOpt  bool
	// replicationDelay overrides the default staleness window (0 = default).
	replicationDelay time.Duration
	// flushCost overrides the preliminary-flushing service time
	// (0 = default).
	flushCost time.Duration
	// opTimeout overrides the fault-injection operation timeout
	// (0 = default; only consulted when an interceptor is attached).
	opTimeout time.Duration
	// shards selects the cluster's token-ring shard count (0 = 1 shard,
	// the unsharded plane every pre-sharding experiment runs on).
	shards int
}

// newCassandra builds a cluster on the world's fabric with the service-time
// model used across the Cassandra experiments.
func (w *world) newCassandra(cfg Config, opts cassandraOpts) *cassandra.Cluster {
	regions := opts.regions
	if regions == nil {
		regions = []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}
	}
	flush := opts.flushCost
	if flush == 0 {
		flush = 500 * time.Microsecond
	}
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          regions,
		Transport:        w.tr,
		Correctable:      opts.correctable,
		ConfirmationOpt:  opts.confirmOpt,
		Shards:           opts.shards,
		Workers:          cassandraWorkers,
		ReadServiceTime:  cassandraServiceTime,
		WriteServiceTime: cassandraServiceTime,
		FlushServiceTime: flush,
		ReplicationDelay: opts.replicationDelay,
		ReadRepairChance: 0.1,
		OpTimeout:        opts.opTimeout,
		Seed:             cfg.Seed,
	})
	if err != nil {
		panic("bench: " + err.Error()) // static configuration; cannot fail
	}
	if w.trc != nil {
		cluster.SetTrace(w.trc)
	}
	return cluster
}

// zkOpts selects the ensemble variant under test.
type zkOpts struct {
	correctable bool
	leader      netsim.Region
	// servers is the ensemble's size, the first of zkRegions (0 = 3).
	servers int
	// probe is the queue the post-heal probe enqueues into; a faulted world
	// names one (run).
	probe string
	// opTimeout bounds client operations under fault injection (0 = default).
	opTimeout time.Duration
	// heartbeat/electionTimeout tune the recovery machinery (0 = defaults).
	// The paper's figures run fault-free, so only the failover experiment
	// sets them.
	heartbeat       time.Duration
	electionTimeout time.Duration
}

// zkRegions place a zk ensemble's servers, in declaration order.
var zkRegions = []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE}

// newZK builds an ensemble on the world's fabric; in a faulted world, run
// probes it after the last heal.
func (w *world) newZK(cfg Config, opts zkOpts) *zk.Ensemble {
	if opts.servers == 0 {
		opts.servers = 3
	}
	e, err := zk.NewEnsemble(zk.Config{
		Regions:           zkRegions[:opts.servers],
		LeaderRegion:      opts.leader,
		Transport:         w.tr,
		Correctable:       opts.correctable,
		Workers:           4,
		ServiceTime:       time.Millisecond,
		OpTimeout:         opts.opTimeout,
		HeartbeatInterval: opts.heartbeat,
		ElectionTimeout:   opts.electionTimeout,
	})
	if err != nil {
		panic("bench: " + err.Error())
	}
	if w.trc != nil {
		e.SetTrace(w.trc)
	}
	if w.inj != nil {
		if opts.probe == "" {
			panic("bench: a faulted zk world names the queue its post-heal probe enqueues into")
		}
		w.probed, w.probeQueue = e, opts.probe
	}
	return e
}

// cassandraClient is the client library over a cassandra binding: a client
// in region contacting the coord replica, its strong level served by
// R=quorum (0 = the binding's default; writes are W=1, as in the paper).
func cassandraClient(cluster *cassandra.Cluster, region, coord netsim.Region, quorum int) *binding.Client {
	return binding.NewClient(cassandra.NewBinding(cassandra.NewClient(cluster, region, coord),
		cassandra.BindingConfig{StrongQuorum: quorum}))
}

// gate starts an admission controller on the world's clock and meter; run
// stops it. The caller fills in the policy (rates, backpressure signal).
func (w *world) gate(cfg load.Config) *load.Controller {
	cfg.Clock, cfg.Meter = w.clock, w.meter
	g := load.NewController(cfg)
	g.Start()
	w.gates = append(w.gates, g)
	return g
}

// gauge registers a sampled time-series on the observability plane; a
// no-op in an untraced world. The first gauge arms the registry's
// self-rescheduling probe over the experiment window at a horizon-relative
// cadence (64 samples per run, floored at 1ms so quick runs don't sample
// sub-millisecond). Gauges are read in registration order at every tick.
func (w *world) gauge(name string, fn func() float64) {
	if w.reg == nil {
		return
	}
	w.reg.Gauge(name, fn)
	if !w.sampling {
		w.sampling = true
		every := w.horizon / 64
		if every < time.Millisecond {
			every = time.Millisecond
		}
		w.reg.Start(w.clock, every, w.horizon)
	}
}

// The gauges more than one experiment samples.

// gaugeQueueDelay samples a coordinator's queueing delay — backpressure,
// and under overload the storm itself.
func (w *world) gaugeQueueDelay(coord *netsim.Server) {
	w.gauge("coord_queue_delay_ms", func() float64 { return metrics.Ms(coord.QueueDelay()) })
}

// gaugeDropped samples the messages lost to the fault schedule so far.
func (w *world) gaugeDropped() {
	w.gauge("dropped_msgs", func() float64 { return float64(w.droppedMsgs()) })
}

// gaugeClientMsgs samples delivered client-link traffic: the operation
// flow, preliminary views included, surviving whatever the run throws at it.
func (w *world) gaugeClientMsgs() {
	w.gauge("client_msgs", func() float64 { return float64(w.meter.Class(netsim.LinkClient).Messages) })
}

// droppedMsgs is the cumulative count of messages severed or dropped by
// the fault schedule, from the meter's dropped counters.
func (w *world) droppedMsgs() int64 {
	return w.meter.Dropped(netsim.LinkClient).Messages + w.meter.Dropped(netsim.LinkReplica).Messages
}

// spawn runs fn as an actor that run waits for.
func (w *world) spawn(fn func()) {
	w.actors.Add(1)
	w.clock.Go(func() {
		defer w.actors.Done()
		fn()
	})
}

// loop spawns one client actor that calls body until the horizon — back to
// back (pace 0: a closed loop) or sleeping pace of model time between
// calls. The client's private RNG is seeded with seed: seed derivations are
// part of an experiment's identity, so they stay at the call site.
func (w *world) loop(seed int64, pace time.Duration, body func(rng *rand.Rand)) {
	rng := rand.New(rand.NewSource(seed))
	w.spawn(func() {
		for w.clock.Now() < w.horizon {
			body(rng)
			if pace > 0 {
				w.clock.Sleep(pace)
			}
		}
	})
}

// arrive drives an open-loop population: fire(n) runs in callback context
// at the n-th arrival — it must not block, and it is where the arrival's
// random draws belong, because arrival order is deterministic — and the
// operation it returns runs as an actor.
func (w *world) arrive(proc load.ArrivalProcess, until time.Duration, fire func(n int) func()) {
	load.Start(w.clock, proc, until, func(n int) { w.spawn(fire(n)) })
}

// alternate splits a population between two placements: even-numbered
// clients get a, odd-numbered ones b.
func alternate(i int, a, b netsim.Region) netsim.Region {
	if i%2 == 1 {
		return b
	}
	return a
}

// session builds one recorded session client: the full invoke pipeline on
// b with the history recorder observing every op and the world's tracer
// (if any) attached. opts follow the standard three.
func (w *world) session(rec *history.Recorder, label string, b binding.Binding, opts ...binding.Option) *binding.Session {
	opts = append([]binding.Option{
		binding.WithObserver(rec),
		binding.WithTracer(w.trc),
		binding.WithLabel(label),
	}, opts...)
	return binding.NewSession(binding.NewClient(b, opts...))
}

// sessionMix describes a population of recorded sessions, each looping a
// get/put mix over the population's own keyspace — the closed world the
// history checkers verify completely.
type sessionMix struct {
	n int
	// label is the fmt pattern naming client i in the history.
	label string
	// binding and seed give client i its store binding and RNG seed.
	binding func(i int) binding.Binding
	seed    func(i int) int64
	// key names the k-th of keys keys; reads is the get fraction; value
	// draws a put's payload; pace as in loop.
	key   func(k int) string
	keys  int
	reads float64
	value func(rng *rand.Rand) []byte
	pace  time.Duration
}

// sessions spawns the population described by m, recording into rec.
func (w *world) sessions(rec *history.Recorder, m sessionMix) {
	ctx := context.Background()
	for i := 0; i < m.n; i++ {
		sess := w.session(rec, fmt.Sprintf(m.label, i), m.binding(i))
		w.loop(m.seed(i), m.pace, func(rng *rand.Rand) {
			key := m.key(rng.Intn(m.keys))
			if rng.Float64() < m.reads {
				_, _ = sess.Get(ctx, key).Final(ctx)
			} else {
				_, _ = sess.Put(ctx, key, m.value(rng)).Final(ctx)
			}
		})
	}
}

// opRecord is one measured operation: its span, its error and the timing
// its views give.
type opRecord struct {
	start, end time.Duration
	err        error
	isRead     bool
	core.Timing
	// degraded: the op completed below the level it asked for.
	degraded bool
}

// readShape is the library entry point a population reads through, one of
// the paper's three calls: binding.InvokeWeak (R=1), binding.InvokeStrong
// (the quorum read alone) or invokeICG (preliminary and final).
type readShape func(context.Context, *binding.Client, binding.OperationFor[[]byte]) *core.Correctable[[]byte]

// invokeICG is binding.Invoke at every level the binding offers.
func invokeICG(ctx context.Context, c *binding.Client, op binding.OperationFor[[]byte]) *core.Correctable[[]byte] {
	return binding.Invoke(ctx, c, op)
}

// timed waits for an invocation issued at start and returns its record,
// read off the views the Correctable kept (core.TimingOf).
func timed[T any](clock netsim.Clock, start time.Duration, cor *core.Correctable[T]) opRecord {
	_, err := cor.Final(context.Background())
	return opRecord{start: start, end: clock.Now(), err: err, Timing: core.TimingOf(cor, start)}
}

// phaseAt maps a model instant into its phase; instants past the last
// phase clamp into it (ops that die during the drain).
func phaseAt(phases []faults.Phase, at time.Duration) int {
	for i, ph := range phases {
		if at < ph.End {
			return i
		}
	}
	return len(phases) - 1
}

// phaseOf buckets one operation: completed operations belong to the phase
// they started in (their latency reflects the conditions they ran under),
// failed ones to the phase they died in (a read that starts just before a
// fault window and times out inside it is that fault's casualty, not the
// healthy baseline's).
func phaseOf(phases []faults.Phase, op opRecord) int {
	if op.err != nil {
		return phaseAt(phases, op.end)
	}
	return phaseAt(phases, op.start)
}

// viewStats accumulates one row's worth of incremental operations: how
// many, how many delivered a preliminary view, how many failed, and both
// view-latency distributions.
type viewStats struct {
	ops, prelims, errs int64
	prelim, final      *metrics.Histogram
}

func newViewStats() *viewStats {
	return &viewStats{prelim: metrics.NewHistogram(), final: metrics.NewHistogram()}
}

func (s *viewStats) add(op opRecord) {
	s.ops++
	if op.HasPrelim {
		s.prelims++
		s.prelim.Record(op.Prelim)
	}
	if op.err != nil {
		s.errs++
	} else {
		s.final.Record(op.Final)
	}
}

// availabilityPct is the share of attempted operations whose final view
// arrived.
func (s *viewStats) availabilityPct() float64 {
	return 100 * metrics.Ratio(s.ops-s.errs, s.ops)
}

// phaseCounters are the cumulative per-world counters the phase rows
// report as differences: messages lost to faults, replication sends
// buffered as hints, and the admission outcomes (attempts, not operations).
type phaseCounters struct {
	dropped, hinted, rejected, shed, retried int64
}

// phaseProbe snapshots the cumulative counters at every phase boundary.
type phaseProbe struct {
	snap func() phaseCounters
	at   []phaseCounters
}

// probePhases arms one snapshot at each phase's end. Arm it before the
// populations so boundary callbacks interleave deterministically with
// their traffic. hinted reports the store's cumulative queued-hint count
// (nil = the store has none).
func (w *world) probePhases(phases []faults.Phase, hinted func() int64) *phaseProbe {
	p := &phaseProbe{at: make([]phaseCounters, len(phases))}
	p.snap = func() phaseCounters {
		l := w.meter.Load(netsim.LinkClient)
		c := phaseCounters{dropped: w.droppedMsgs(), rejected: l.Rejected, shed: l.Shed, retried: l.Retried}
		if hinted != nil {
			c.hinted = hinted()
		}
		return c
	}
	for i, ph := range phases {
		w.clock.RunAt(ph.End, func() { p.at[i] = p.snap() })
	}
	return p
}

// closeLast re-snapshots the last boundary after the run, folding what
// late retries and the drain added past the horizon into the last phase.
func (p *phaseProbe) closeLast() { p.at[len(p.at)-1] = p.snap() }

// during returns the counters accumulated inside phase i.
func (p *phaseProbe) during(i int) phaseCounters {
	c := p.at[i]
	if i > 0 {
		prev := p.at[i-1]
		c.dropped -= prev.dropped
		c.hinted -= prev.hinted
		c.rejected -= prev.rejected
		c.shed -= prev.shed
		c.retried -= prev.retried
	}
	return c
}

// run plays the experiment out: wait for every population, stop the
// admission gates, probe recovery, clear the faults so stalled traffic can
// finish, and drain the background traffic. It returns the model instant
// the last actor finished at.
//
// It checks two post-conditions, each a liveness failure no checker over
// completed operations can see, and reports the first that fails as a
// *breach. Recovery: in a world with a faulted zk ensemble, once the last
// heal has had zk.RecoveryTimeouts election timeouts to take effect, a strong
// enqueue from every server as contact commits (probeRecovery). zk's
// ErrLeaderLost is ambiguous, so the checkers count such an operation as
// optional, and a contact that never commits again would pass them.
// Quiescence: once the faults are cleared and the clock drained, nothing is
// left that could wake a parked actor, so one that remains is waiting for
// something a fault destroyed — the operation never completed. The same
// holds for a zk forward its contact still keeps (zk's PendingForwards): it
// waits on no actor, for a leader its contact no longer names.
func (w *world) run() (time.Duration, error) {
	w.actors.Wait()
	for _, g := range w.gates {
		g.Stop()
	}
	end := w.clock.Now()
	var lost error
	if w.inj != nil {
		lost = w.probeRecovery()
		w.inj.Quiesce()
	}
	w.clock.Drain()
	if n := w.clock.Parked(); n > 0 {
		return end, &breach{guarantee: "quiescence", detail: fmt.Sprintf("%d actor(s) still parked after the faults cleared and the clock drained, "+
			"each waiting for something that can no longer happen", n)}
	}
	if w.probed != nil {
		if held := w.probed.PendingForwards(); len(held) > 0 {
			return end, &breach{guarantee: "quiescence", detail: fmt.Sprintf("%d zk forward(s) still held by their contact (%v) after the faults cleared and the clock drained, "+
				"each waiting for a leader its contact no longer names", len(held), held)}
		}
	}
	return end, lost
}

// A breach is a post-condition of run that a world failed: the guarantee
// it names ("quiescence", "recovery") and what was seen.
type breach struct{ guarantee, detail string }

func (b *breach) Error() string { return b.detail }

// probeRecovery is the recovery post-condition, run before Quiesce so that
// it judges the protocol and not the stopped timers: it heals the world's
// partitions (faults.Heal, which stops no timer), lets zk.RecoveryTimeouts
// election timeouts pass, and then sends one strong enqueue from every
// server as contact, all at once, through the client library. It returns a
// recovery breach naming each probe that failed. The probes record no
// history and fall after every reported row.
func (w *world) probeRecovery() error {
	e := w.probed
	if e == nil {
		return nil
	}
	w.inj.Apply(faults.Heal{})
	bound := zk.RecoveryTimeouts * e.Config().ElectionTimeout
	w.clock.Sleep(bound)
	ctx := context.Background()
	regions := e.Config().Regions
	errs := make([]error, len(regions))
	g := w.clock.NewGroup()
	for i, r := range regions {
		c := binding.NewClient(zk.NewBinding(zk.NewQueueClient(e, r, r)))
		g.Add(1)
		w.clock.Go(func() {
			defer g.Done()
			op := binding.Enqueue{Queue: w.probeQueue, Item: []byte("probe")}
			_, errs[i] = binding.InvokeStrong[binding.Item](ctx, c, op).Final(ctx)
		})
	}
	g.Wait()
	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", regions[i], err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &breach{guarantee: "recovery", detail: fmt.Sprintf("%d of %d zk contacts did not commit %v after the last heal: %s",
		len(failed), len(regions), bound, strings.Join(failed, "; "))}
}

// mustRun is run for the drivers that return rows and no error: their
// worlds are fault-free, where a parked actor can only be a bug.
func (w *world) mustRun() time.Duration {
	end, err := w.run()
	if err != nil {
		panic("bench: " + err.Error())
	}
	return end
}

// transitions renders the injector's applied-transition log ("4s: partition
// {eu-frankfurt eu-ireland} | {us-virginia}"), the replay record.
func (w *world) transitions() []string {
	var out []string
	for _, tr := range w.inj.Log() {
		out = append(out, tr.At.String()+": "+tr.Desc)
	}
	return out
}

// Observed is the observability plane's share of a result (Config.Trace
// runs only): the per-phase latency decomposition from the span tracer,
// the registry's sampled gauges, and the raw tracer and registry for Chrome
// trace export (icgbench -trace), which do not marshal. Results embed it
// last, so it extends their JSON without reordering it.
type Observed struct {
	Decomp     []PhaseDecomp      `json:"latency_decomposition,omitempty"`
	Timeseries []trace.TimeSeries `json:"timeseries,omitempty"`
	Trace      *trace.Tracer      `json:"-"`
	TraceReg   *trace.Registry    `json:"-"`
}

// Traced returns the recorded tracer and gauge registry (nil untraced).
func (o Observed) Traced() (*trace.Tracer, *trace.Registry) { return o.Trace, o.TraceReg }

// observe collects what the tracer and registry recorded, decomposed over
// phases. Zero in an untraced world.
func (w *world) observe(phases []faults.Phase) Observed {
	if w.trc == nil {
		return Observed{}
	}
	o := Observed{Timeseries: w.reg.Series(), Trace: w.trc, TraceReg: w.reg}
	for _, ph := range phases {
		o.Decomp = append(o.Decomp, decompRow(w.trc, ph.Name, ph.Start, ph.End))
	}
	return o
}
