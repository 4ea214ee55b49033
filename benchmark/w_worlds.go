package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/causal"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/netsim"
)

// ---- worlds_faults_parallel ---------------------------------------------

const (
	// One short world per (profile, seed), each on its own VirtualClock,
	// swept by min(nproc, 2) workers.
	smallSeeds       = 300 // measured seeds per profile
	smallWarmupSeeds = 110 // warm-up seeds per profile, a disjoint window
	smallUnit        = 50 * time.Millisecond
	smallSessions    = 4
	smallCausal      = 2
	smallKeys        = 12
	smallCausalKeys  = 6
	// An invocation a fault makes impossible fails after smallOpTimeout and
	// the client re-issues it (untilOK). Every fault a profile generates
	// ends by the world's horizon (20 units), so every operation completes.
	smallOpTimeout = 3 * smallUnit
)

// smallProfiles are the composed nemesis products of internal/faults: the
// sharded one runs its schedules against a 4-shard cluster.
var smallProfiles = []string{"tracks-mild", "tracks-harsh", "tracks-sharded"}

// smallOutcome is one finished world.
type smallOutcome struct {
	ops          []opRec
	horizon      time.Duration
	bytes        int64
	recorded     int
	sums         fabricSums
	violations   []history.Violation
	inconclusive []string
	err          error
}

// runSmallWorld builds, runs and checks one world: paced session clients on
// Correctable Cassandra (R=3, so quorums intersect with W=1) under a
// composed fault schedule, with session, cross-object and register checks
// over their history; and plain ladder clients on the causal store with
// the causal-cut check.
func runSmallWorld(profile string, seed int64, traced bool) smallOutcome {
	profs, err := faults.ProfilesByName(profile, smallUnit)
	if err != nil {
		return smallOutcome{err: err}
	}
	var horizon time.Duration
	for _, p := range profs {
		horizon = max(horizon, p.Horizon)
	}
	f := newFabric(seed, traced)
	mark := f.mark()
	inj := faults.Attach(f.tr, faults.Compose(faults.RandomTracks(seed, profs)...), seed+3)
	shards := 1
	if profile == "tracks-sharded" {
		shards = 4
	}
	cluster, err := f.newCassandra(seed, shards, smallOpTimeout)
	if err != nil {
		return smallOutcome{err: err}
	}
	st, err := causal.NewStore(causal.Config{
		Primary:          netsim.FRK,
		Backups:          []netsim.Region{netsim.IRL, netsim.VRG},
		Transport:        f.tr,
		ServiceTime:      200 * time.Microsecond,
		PropagationDelay: smallUnit / 2,
		OpTimeout:        smallOpTimeout,
	})
	if err != nil {
		return smallOutcome{err: err}
	}
	if f.trc != nil {
		st.SetTrace(f.trc)
	}
	val := payload(30)
	for i := 0; i < smallCausalKeys; i++ {
		st.Preload(fmt.Sprintf("c-%02d", i), val)
	}

	clock := f.clock
	log := &opLog{}
	log.start(256)
	recA, recB := history.NewRecorder(), history.NewRecorder()
	g := clock.NewGroup()
	ctx := context.Background()
	for i := 0; i < smallSessions; i++ {
		coord := netsim.FRK
		if i%2 == 1 {
			coord = netsim.IRL
		}
		b := cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, coord), cassandra.BindingConfig{StrongQuorum: 3})
		sess := binding.NewSession(binding.NewClient(b, binding.WithObserver(recA),
			binding.WithLabel(fmt.Sprintf("sess-%02d", i)), binding.WithTracer(f.trc)))
		rng := rand.New(rand.NewSource(seed + 100_003*int64(i) + 7))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for clock.Now() < horizon {
				now := clock.Now()
				key := fmt.Sprintf("k-%02d", rng.Intn(smallKeys))
				isRead := rng.Float64() < 0.6
				log.add(untilOK(func() opRec {
					if isRead {
						return timed(clock, "get", now, clock.Now(), sess.Get(ctx, key))
					}
					return timed(clock, "put", now, clock.Now(), sess.Put(ctx, key, val))
				}))
				clock.Sleep(smallUnit / 12)
			}
		})
	}
	for i := 0; i < smallCausal; i++ {
		region := netsim.IRL
		if i%2 == 1 {
			region = netsim.VRG
		}
		kv := causal.NewKV(causal.NewBinding(causal.NewClient(st, region)),
			binding.WithObserver(recB), binding.WithLabel(fmt.Sprintf("cau-%02d", i)), binding.WithTracer(f.trc))
		rng := rand.New(rand.NewSource(seed + 500_009*int64(i) + 13))
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for clock.Now() < horizon {
				now := clock.Now()
				key := fmt.Sprintf("c-%02d", rng.Intn(smallCausalKeys))
				isRead := rng.Float64() < 0.7
				log.add(untilOK(func() opRec {
					if isRead {
						return timed(clock, "causal_get", now, clock.Now(), kv.Get(ctx, key))
					}
					return timed(clock, "causal_put", now, clock.Now(), kv.Put(ctx, key, val))
				}))
				clock.Sleep(smallUnit / 10)
			}
		})
	}
	g.Wait()
	inj.Quiesce()
	clock.Drain()

	opsA, opsB := recA.Ops(), recB.Ops()
	out := smallOutcome{ops: log.ops, horizon: horizon, bytes: f.bytesOnWire(), recorded: len(opsA) + len(opsB),
		sums: f.since(mark, horizon, 3*shards*serverWorkers)}
	out.violations = append(out.violations, history.CheckSessionGuarantees(opsA)...)
	out.violations = append(out.violations, history.CheckCrossObjectWFR(opsA)...)
	out.violations = append(out.violations, history.CheckCausalCut(opsA)...)
	lin, inconclusive := history.CheckRegisters(opsA, 0)
	out.violations = append(out.violations, lin...)
	out.inconclusive = inconclusive
	out.violations = append(out.violations, history.CheckCausalCut(opsB)...)
	if n := recA.Collisions() + recB.Collisions(); n > 0 {
		out.err = fmt.Errorf("%d client-label collisions", n)
	}
	return out
}

// sweepSmallWorlds runs seeds [first, first+n) of every profile on
// min(nproc, 2) workers and returns the outcomes in (profile, seed) order,
// whatever order the workers finished in.
func sweepSmallWorlds(first int64, n int, traced bool) []smallOutcome {
	outs := make([]smallOutcome, len(smallProfiles)*n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), 2); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(outs) {
					return
				}
				outs[i] = runSmallWorld(smallProfiles[i/n], first+int64(i%n), traced)
			}
		}()
	}
	wg.Wait()
	return outs
}

type smallWorlds struct {
	first  int64
	n      int
	traced bool
	limit  time.Duration
	floor  int64

	recorded int
	sums     fabricSums
}

func setupSmallWorlds(seed int64, scale float64, traced bool) (world, error) {
	// World seeds are windows of the run seed's own range, so different
	// run seeds sweep disjoint worlds.
	first := seed * 10_000
	for _, o := range sweepSmallWorlds(first+5_000, max(1, int(smallWarmupSeeds*scale)), false) {
		if o.err != nil {
			return nil, o.err
		}
	}
	return &smallWorlds{first: first, n: max(1, int(smallSeeds*scale)), traced: traced,
		limit: 250 * time.Millisecond, floor: int64(minFinals * scale)}, nil
}

func (w *smallWorlds) measure() result {
	outs := sweepSmallWorlds(w.first, w.n, w.traced)
	var (
		ops          []opRec
		span         time.Duration
		bytes        int64
		violations   []history.Violation
		inconclusive []string
		out          result
	)
	w.recorded, w.sums = 0, fabricSums{}
	for _, o := range outs {
		if o.err != nil && out.detail == "" {
			out.detail = "world: " + o.err.Error()
		}
		ops = append(ops, o.ops...)
		span += o.horizon
		bytes += o.bytes
		w.recorded += o.recorded
		w.sums.add(o.sums)
		violations = append(violations, o.violations...)
		inconclusive = append(inconclusive, o.inconclusive...)
	}
	out.model = summarize(ops, w.limit, span, bytes)
	out.ops = ops
	out.violations, out.inconclusive = len(violations), len(inconclusive)
	if out.detail == "" {
		out.detail = checkFloor(ops, out.model, w.floor)
	}
	if out.detail == "" {
		out.detail = historyDetail(violations, inconclusive)
	}
	return out
}

func (w *smallWorlds) layers(res result) map[string]float64 {
	out := w.sums.layers(res.model.ok)
	out["worlds.count"] = float64(len(smallProfiles) * w.n)
	reissued := 0
	for _, op := range res.ops {
		reissued += op.attempts - 1
	}
	out["worlds.reissued_per_kop"] = 1000 * float64(reissued) / float64(res.model.ok)
	out["history.ops_recorded"] = float64(w.recorded)
	out["history.violations"] = float64(res.violations)
	out["history.inconclusive"] = float64(res.inconclusive)
	return out
}
