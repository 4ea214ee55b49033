package cassandra

import (
	"bytes"
	"context"
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
// actor per operation that blocks at every hop, server slot and wait.

// actorSubmit is SubmitOperation as an actor.
func (b *Binding) actorSubmit(op binding.Operation, levels core.Levels, cb binding.Callback) {
	b.clock().Go(func() {
		switch o := op.(type) {
		case binding.Get:
			emit := func(v ReadView) {
				level := v.Level
				if v.Final {
					level = levels.Strongest()
				}
				cb(binding.Result{Value: v.Value, Level: level, Version: v.Version.Token()})
			}
			wantWeak, wantStrong := levels.Contains(core.LevelWeak), levels.Contains(core.LevelStrong)
			var err error
			switch {
			case wantWeak && wantStrong && b.client.cluster.cfg.Correctable:
				err = b.client.actorRead(o.Key, b.cfg.StrongQuorum, true, emit)
			case wantStrong:
				err = b.client.actorRead(o.Key, b.cfg.StrongQuorum, false, emit)
			case wantWeak:
				err = b.client.actorRead(o.Key, 1, false, emit)
			default:
				err = fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, levels)
			}
			if err != nil {
				cb(binding.Result{Err: err})
			}
		case binding.Put:
			v, err := b.client.actorWrite(o.Key, o.Value, b.cfg.WriteQuorum)
			if err != nil {
				cb(binding.Result{Err: err})
				return
			}
			cb(binding.Result{Value: nil, Level: levels.Strongest(), Version: v.Token()})
		default:
			cb(binding.Result{Err: fmt.Errorf("%w: cassandra has no %q", binding.ErrUnsupportedOperation, op.OpName())})
		}
	})
}

// actorRoute carries the request to the owner shard's coordinator.
func (c *Client) actorRoute(shard, reqSize int) *Replica {
	cl := c.cluster
	tr := cl.tr
	tr.Travel(c.Region, c.Coordinator, netsim.LinkClient, reqSize)
	owner := cl.replicas[c.Coordinator][shard]
	if shard == 0 || c.TokenAware {
		return owner
	}
	contact := cl.replicas[c.Coordinator][0]
	var routeSp trace.SpanID
	if trc := cl.trc; trc != nil {
		routeSp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatRoute, "route", "", tr.Clock().Now())
	}
	contact.server.Process(routeServiceTime)
	tr.Travel(c.Coordinator, c.Coordinator, netsim.LinkReplica, reqSize)
	cl.trc.End(routeSp, tr.Clock().Now())
	return owner
}

// actorRead is Read as straight-line code.
func (c *Client) actorRead(key string, quorum int, wantPrelim bool, onView func(ReadView)) error {
	cfg := &c.cluster.cfg
	if err := c.checkQuorum("read", quorum); err != nil {
		return err
	}
	wantPrelim = wantPrelim && cfg.Correctable && quorum > 1
	tr := c.cluster.tr
	clock := tr.Clock()
	shard := c.cluster.ShardOf(key)
	coord := c.actorRoute(shard, readRequestSize(key))
	coord.server.Process(cfg.ReadServiceTime)
	local := coord.tab.get(key)

	var prelimDelivered *netsim.Event
	prelimLeft := false
	if wantPrelim {
		prelimDelivered = clock.NewEvent()
		var flushSp trace.SpanID
		if trc := c.cluster.trc; trc != nil {
			flushSp = trc.Begin(c.cluster.phaseTrk[c.Coordinator], trace.CatFlush, "prelim-flush", key, clock.Now())
		}
		coord.server.Process(cfg.FlushServiceTime)
		prelim := local
		prelimLeft = tr.Send(c.Coordinator, c.Region, netsim.LinkClient, readResponseSize(prelim.Bytes()), func() {
			c.cluster.trc.End(flushSp, clock.Now())
			onView(ReadView{Value: prelim.Bytes(), Version: prelim, Level: core.LevelWeak})
			prelimDelivered.Fire()
		})
	}

	reconciled := local
	if quorum > 1 {
		need := quorum - 1
		var quorumSp trace.SpanID
		if trc := c.cluster.trc; trc != nil {
			quorumSp = trc.Begin(c.cluster.phaseTrk[c.Coordinator], trace.CatQuorum, "read-quorum", key, clock.Now())
		}
		g := c.cluster.getGather(c, shard, key)
		for i := range g.legs[:need] {
			g.legs[i].read()
		}
		for range need {
			if v := g.legs[g.arrived.Get().(int)].reply; v.Newer(reconciled) {
				reconciled = v
			}
		}
		c.cluster.putGather(g)
		c.cluster.trc.End(quorumSp, clock.Now())
		if reconciled.Newer(local) {
			coord.tab.apply(key, reconciled)
		}
		if c.cluster.rollReadRepair(key) {
			if trc := c.cluster.trc; trc != nil {
				trc.Instant(c.cluster.phaseTrk[c.Coordinator], "read-repair", key, clock.Now())
			}
			c.repairAsync(shard, key, reconciled)
		}
	}

	confirmed := wantPrelim && reconciled.Same(local)
	respSize := readResponseSize(reconciled.Bytes())
	if confirmed && cfg.ConfirmationOpt {
		respSize = ConfirmationSize
	}
	final := ReadView{Value: reconciled.Bytes(), Version: reconciled, Level: core.LevelStrong, Final: true}
	if quorum == 1 {
		final.Level = core.LevelWeak
	}
	tr.Travel(c.Coordinator, c.Region, netsim.LinkClient, respSize)
	if prelimDelivered != nil {
		if prelimLeft {
			prelimDelivered.Wait()
		}
		prelimDelivered.Release()
	}
	onView(final)
	return nil
}

// actorWrite is Write as straight-line code, returning the committed version.
func (c *Client) actorWrite(key string, value []byte, w int) (Versioned, error) {
	cfg := &c.cluster.cfg
	if err := c.checkQuorum("write", w); err != nil {
		return Versioned{}, err
	}
	tr := c.cluster.tr
	clock := tr.Clock()
	shard := c.cluster.ShardOf(key)
	coord := c.actorRoute(shard, writeRequestSize(key, value))
	coord.server.Process(cfg.WriteServiceTime)

	v := Versioned{wire: binding.CopyIn(value), TS: c.cluster.nextTS(), NodeID: coord.ID, Exists: true}
	coord.tab.apply(key, v)

	peers := c.cluster.othersByProximity(c.Coordinator)
	needSync := w - 1
	var syncSp trace.SpanID
	if trc := c.cluster.trc; trc != nil && needSync > 0 {
		syncSp = trc.Begin(c.cluster.phaseTrk[c.Coordinator], trace.CatQuorum, "write-sync", key, clock.Now())
	}
	var g *gather
	if needSync > 0 {
		g = c.cluster.getGather(c, shard, key)
		g.v = v
		g.acks.Add(needSync)
	}
	for i, peer := range peers {
		if i < needSync {
			g.legs[i].write()
		} else if c.cluster.hintable(c.Coordinator, peer) {
			c.cluster.bufferHint(c.Coordinator, peer, shard, key, v)
		} else {
			peerReplica := c.cluster.ReplicaAt(shard, peer)
			tr.SendAfter(cfg.ReplicationDelay, c.Coordinator, peer, netsim.LinkReplica,
				replicationSize(key, value), func() {
					peerReplica.tab.apply(key, v)
				})
		}
	}
	if g != nil {
		g.acks.Wait()
		c.cluster.putGather(g)
	}
	c.cluster.trc.End(syncSp, clock.Now())
	tr.Travel(c.Coordinator, c.Region, netsim.LinkClient, WriteAckSize)
	return v, nil
}

// submitter starts one operation on a binding: the record or the reference.
type submitter func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback)

var (
	asRecord submitter = func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback) {
		b.SubmitOperation(context.Background(), op, levels, cb)
	}
	asActor submitter = func(b *Binding, op binding.Operation, levels core.Levels, cb binding.Callback) {
		b.actorSubmit(op, levels, cb)
	}
)

// recordScene is everything the record and the reference must agree on.
type recordScene struct {
	log              []string
	end              time.Duration
	traffic, dropped map[string]netsim.LinkStats
	servers          []string // per replica: handled, busy model time, stored versions
	hints            HintStats
	spans            string // the Chrome export: every span with its annotation
	nSpans, nInst    int
	parked           int
}

// playRecordScene plays the randomized cassandra world of one seed, submitting
// every operation with submit. faulted attaches an injector with a random
// schedule (crashes, partitions, zero-latency and slow spikes, lossy links),
// traced a tracer; with neither every hop takes the transport's fast path.
func playRecordScene(seed int64, faulted, traced bool, submit submitter) recordScene {
	rng := rand.New(rand.NewSource(seed))
	regions := []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG}
	pick := func() netsim.Region { return regions[rng.Intn(len(regions))] }
	ms := time.Millisecond

	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, seed)
	var inj *faults.Injector
	if faulted {
		sched := faults.NewSchedule()
		// Zero-latency spikes: hops that arrive at the instant they leave.
		sched.At(time.Duration(rng.Intn(100))*ms, faults.LatencySpike{Factor: 0, Duration: time.Duration(20+rng.Intn(60)) * ms})
		for n := 3 + rng.Intn(4); n > 0; n-- {
			at, dur := time.Duration(rng.Intn(250))*ms, time.Duration(5+rng.Intn(120))*ms
			a, b := pick(), pick()
			switch rng.Intn(5) {
			case 0:
				sched.At(at, faults.Crash{Region: a}).At(at+dur, faults.Restart{Region: a})
			case 1:
				var rest []netsim.Region
				for _, r := range regions {
					if r != a {
						rest = append(rest, r)
					}
				}
				id := 1 + rng.Intn(1000)
				sched.At(at, faults.Partition{Groups: [][]netsim.Region{{a}, rest}, ID: id}).At(at+dur, faults.Heal{ID: id})
			case 2:
				sched.At(at, faults.LatencySpike{From: a, To: b, Factor: []float64{0, 0.5, 3}[rng.Intn(3)], Duration: dur})
			default:
				sched.At(at, faults.Drop{From: a, To: b, Prob: 0.4, Duration: dur})
			}
		}
		inj = faults.Attach(tr, sched, seed)
	}
	shards := 1 + rng.Intn(2)
	cluster, err := NewCluster(Config{
		Regions:          regions,
		Transport:        tr,
		Shards:           shards,
		Correctable:      rng.Intn(4) > 0,
		ConfirmationOpt:  rng.Intn(2) == 0,
		Workers:          1 + rng.Intn(2),
		ReadRepairChance: 0.5,
		Seed:             seed,
	})
	if err != nil {
		panic(err)
	}
	var trc *trace.Tracer
	if traced {
		trc = trace.New()
		tr.SetTrace(trc)
		cluster.SetTrace(trc)
	}
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys[:3] {
		cluster.Preload(k, []byte("pre-"+k))
	}

	// A few clients, some routing through their contact on a sharded
	// cluster, each with bindings of every quorum size.
	type site struct {
		c        *Client
		bindings []*Binding
	}
	var sites []site
	for n := 2 + rng.Intn(2); n > 0; n-- {
		c := NewClient(cluster, pick(), pick())
		c.TokenAware = rng.Intn(3) == 0
		s := site{c: c}
		for q := 1; q <= 3; q++ {
			s.bindings = append(s.bindings, NewBinding(c, BindingConfig{StrongQuorum: q, WriteQuorum: 1 + rng.Intn(3)}))
		}
		sites = append(sites, s)
	}

	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", clock.Now())+fmt.Sprintf(format, args...))
	}
	levelSets := []core.Levels{
		{core.LevelWeak}, {core.LevelStrong}, {core.LevelWeak, core.LevelStrong}, {core.LevelWeak, core.LevelStrong},
	}
	// Operations start on a 10 ms grid, each instant's from one driver actor
	// that submits them back to back, with a background message between
	// submissions: the operations' first steps queue behind the driver, and
	// share link RNGs and same-instant timers with traffic of their own.
	type submission struct {
		b      *Binding
		op     binding.Operation
		levels core.Levels
		cb     binding.Callback
		from   netsim.Region
	}
	byStart := map[time.Duration][]submission{}
	nOps := 16 + rng.Intn(12)
	for id := 0; id < nOps; id++ {
		s := sites[rng.Intn(len(sites))]
		key := keys[rng.Intn(len(keys))]
		var op binding.Operation = binding.Get{Key: key}
		levels := levelSets[rng.Intn(len(levelSets))]
		if rng.Intn(3) == 0 {
			op = binding.Put{Key: key, Value: []byte(fmt.Sprintf("v%d-%d", seed, id))}
		}
		start := time.Duration(rng.Intn(30)) * 10 * ms
		byStart[start] = append(byStart[start], submission{
			b: s.bindings[rng.Intn(3)], op: op, levels: levels, from: s.c.Region,
			cb: func(r binding.Result) {
				if r.Err != nil {
					logf("op %d: error %v", id, r.Err)
					return
				}
				logf("op %d: %s %q ts=%d", id, r.Level, r.Value, r.Version)
			},
		})
	}
	for step := 0; step < 30; step++ {
		start := time.Duration(step) * 10 * ms
		subs := byStart[start]
		if len(subs) == 0 {
			continue
		}
		clock.Go(func() {
			clock.SleepUntil(start)
			for i, sub := range subs {
				logf("%v: %s %v from %s", start, sub.op.OpName(), sub.levels, sub.from)
				submit(sub.b, sub.op, sub.levels, sub.cb)
				to := regions[(i+int(start/ms))%len(regions)]
				tr.Send(sub.from, to, netsim.LinkClient, 64, func() { logf("background %s→%s", sub.from, to) })
			}
		})
	}
	if inj != nil {
		clock.RunAt(2*time.Second, inj.Quiesce) // every operation gets home
	}
	clock.Drain()

	res := recordScene{
		log: log, end: clock.Now(),
		traffic: meter.Snapshot(), dropped: meter.SnapshotDropped(),
		hints:  cluster.HintStats(),
		parked: clock.Parked(),
	}
	for _, region := range regions {
		for _, rep := range cluster.replicas[region] {
			state := fmt.Sprintf("%s#%d handled=%d busy=%v", region, rep.Shard, rep.server.Handled(), rep.server.BusyModelTime())
			for _, k := range keys {
				v := rep.Get(k)
				state += fmt.Sprintf(" %s=%q@%d", k, v.Bytes(), v.TS)
			}
			res.servers = append(res.servers, state)
		}
	}
	if traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf, nil); err != nil {
			panic(err)
		}
		res.spans = buf.String()
		res.nSpans, res.nInst = trc.Counts()
	}
	return res
}

// TestReadRecordMatchesActor is the oracle for "no event moves" one layer up
// from TestRoundTripMatchesActorLeg: the same randomized cassandra world —
// reads at R=1..3 with and without a preliminary, confirmations on and off,
// writes at W=1..3 with hinted peers, a sharded cluster's route hop,
// same-instant arrivals — played once with the actor per operation and once
// with the record must produce the same (instant, event) log, the same meter
// counters (dropped included), the same server occupancy and replica
// contents, the same spans with the same stall/drop annotations, and leave
// nothing parked.
func TestReadRecordMatchesActor(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
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
		var prelims, drops, stalls, hints, routes int
		for seed := int64(1); seed <= seeds; seed++ {
			want := playRecordScene(seed, mode.faulted, mode.traced, asActor)
			got := playRecordScene(seed, mode.faulted, mode.traced, asRecord)
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
					[]any{want.end, want.traffic, want.dropped, want.servers, want.hints, want.nSpans, want.parked},
					[]any{got.end, got.traffic, got.dropped, got.servers, got.hints, got.nSpans, got.parked})
			}
			if got.parked != 0 {
				t.Fatalf("%s, seed %d: %d parked after Drain", mode.name, seed, got.parked)
			}
			prelims += strings.Count(got.spans, `"name":"prelim-flush"`)
			drops += int(got.dropped[netsim.LinkClient].Messages + got.dropped[netsim.LinkReplica].Messages)
			stalls += strings.Count(got.spans, `"detail":"stall"`)
			hints += got.hints.Queued
			routes += strings.Count(got.spans, `"name":"route"`)
		}
		t.Logf("%s: %d scenes, %d preliminaries, %d drops, %d stalls, %d hints, %d routes", mode.name, seeds, prelims, drops, stalls, hints, routes)
		if mode.faulted && (drops == 0 || hints == 0) {
			t.Errorf("%s: %d drops and %d hints in %d scenes, want some of each", mode.name, drops, hints, seeds)
		}
		if mode.traced && (routes == 0 || prelims == 0) {
			t.Errorf("%s: %d route and %d prelim-flush spans in %d scenes, want some of each", mode.name, routes, prelims, seeds)
		}
		if mode.faulted && mode.traced && stalls == 0 {
			t.Errorf("%s: no span was annotated stall in %d scenes", mode.name, seeds)
		}
	}
}

// severed is a netsim.Interceptor that stalls one directed replica link until
// healed is set, and delivers everything else.
type severed struct {
	from, to netsim.Region
	healed   bool
	changed  *netsim.Event
}

func (s *severed) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if !s.healed && from == s.from && to == s.to && class == netsim.LinkReplica {
		return netsim.VerdictStall, 1
	}
	return netsim.VerdictDeliver, 1
}

func (s *severed) Changed() *netsim.Event { return s.changed }

// TestReadRecordStalledForGoodIsParked: liveness survives the move. A quorum
// read whose peer leg waits on a link that never heals is no goroutine any
// more, but its two waits — the leg's on the fault transition, the record's
// on the quorum — still count as parked once the clock has drained, as the
// actor's did, and the read completes after the heal.
func TestReadRecordStalledForGoodIsParked(t *testing.T) {
	for _, way := range []struct {
		name   string
		submit submitter
	}{{"actor", asActor}, {"record", asRecord}} {
		cluster, _, clock := newTestCluster(t, true, true)
		cluster.Preload("k", []byte("v"))
		const coord = netsim.FRK
		cut := &severed{from: coord, to: cluster.othersByProximity(coord)[0], changed: clock.NewEvent()}
		cluster.tr.SetInterceptor(cut)
		b := NewBinding(NewClient(cluster, netsim.IRL, coord), BindingConfig{})
		var views []binding.Result
		before := clock.Spawned()
		way.submit(b, binding.Get{Key: "k"}, core.Levels{core.LevelWeak, core.LevelStrong}, func(r binding.Result) {
			views = append(views, r)
		})
		clock.Drain()
		if n := clock.Parked(); n != 2 {
			t.Fatalf("%s: Parked() = %d after Drain, want the stalled leg and the read waiting for it", way.name, n)
		}
		if len(views) != 1 || views[0].Level != core.LevelWeak {
			t.Fatalf("%s: the stalled read delivered %v, want its preliminary alone", way.name, views)
		}
		cut.healed = true
		cut.changed.Fire()
		clock.Drain()
		if n := clock.Parked(); n != 0 {
			t.Errorf("%s: Parked() = %d once the link healed, want 0", way.name, n)
		}
		if len(views) != 2 || views[1].Level != core.LevelStrong || fmt.Sprintf("%s", views[1].Value) != "v" {
			t.Errorf("%s: after the heal the read delivered %v, want its final too", way.name, views)
		}
		spawned := clock.Spawned() - before
		if want := map[string]uint64{"actor": 1, "record": 0}[way.name]; spawned != want {
			t.Errorf("%s: the read started %d actors, want %d", way.name, spawned, want)
		}
	}
}
