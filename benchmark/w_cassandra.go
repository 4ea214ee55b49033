package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"correctables/internal/apps/adserver"
	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/history"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// ---- ads_spec_closed ----------------------------------------------------

const (
	adsClients  = 16
	adsProfiles = 4000
	adsCatalog  = 20000
	adsMeasured = 90 * time.Second // model time
	adsWarmup   = 36 * time.Second
	// adsBaselineSpan is the model time of the untimed C2 baseline run the
	// Fig 11 shape check compares against.
	adsBaselineSpan = 10 * time.Second
)

var adsLoad = adserver.LoadOptions{Profiles: adsProfiles, Ads: adsCatalog, MaxRefs: 8, AdBodySize: 600}

// adsDB adapts the ad service to the YCSB runner and logs every operation:
// a read is FetchAdsByUserID, an update rewrites a profile's references.
type adsDB struct {
	svc         *adserver.Service
	clock       netsim.Clock
	speculative bool
	load        adserver.LoadOptions
	log         *opLog
}

func (db *adsDB) Read(_ *rand.Rand, key string) (ycsb.ReadOutcome, error) {
	start := db.clock.Now()
	out, err := db.svc.FetchAdsByUserID(context.Background(), keyIndex(key)%db.load.Profiles, db.speculative)
	db.log.add(opRec{kind: "fetch_ads", due: start, start: start,
		hasPrelim: err == nil && db.speculative, prelim: out.PrelimAt, final: out.Latency, err: err})
	if err != nil {
		return ycsb.ReadOutcome{}, err
	}
	return ycsb.ReadOutcome{HasPrelim: db.speculative, PrelimLatency: out.PrelimAt,
		FinalLatency: out.Latency, Diverged: out.Misspeculated}, nil
}

func (db *adsDB) Update(rng *rand.Rand, key string, _ []byte) (time.Duration, error) {
	start := db.clock.Now()
	lat, err := db.svc.UpdateProfile(context.Background(), keyIndex(key)%db.load.Profiles, adserver.RandomRefs(rng, db.load))
	db.log.add(opRec{kind: "update_profile", due: start, start: start, final: lat, err: err})
	return lat, err
}

// keyIndex extracts the numeric suffix of a YCSB key.
func keyIndex(key string) int {
	n := 0
	for _, c := range key {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

type adsWorld struct {
	f       *fabric
	cluster *cassandra.Cluster
	db      *adsDB
	wl      ycsb.Workload
	seed    int64
	scale   float64
	span    time.Duration
	limit   time.Duration
	floor   int64
	// baselineP50 is the C2 (non-speculative) median verify measured.
	baselineP50 time.Duration

	misspecPct float64
	mark       fabricMark
}

// newAdsDB builds the ad-serving world: three replicas, 16 clients' worth
// of service in IRL contacting the FRK coordinator.
func newAdsDB(seed int64, speculative, traced bool) (*fabric, *cassandra.Cluster, *adsDB, error) {
	f := newFabric(seed, traced)
	cluster, err := f.newCassandra(seed, 1, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	load := adsLoad
	load.Seed = seed
	adserver.Load(cluster, load)
	b := cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{})
	db := &adsDB{svc: adserver.NewService(b), clock: f.clock, speculative: speculative, load: load, log: &opLog{}}
	return f, cluster, db, nil
}

func setupAds(seed int64, scale float64, traced bool) (world, error) {
	f, cluster, db, err := newAdsDB(seed, true, traced)
	if err != nil {
		return nil, err
	}
	wl := ycsb.WorkloadB(ycsb.DistZipfian, adsProfiles, 128)
	ycsb.Run(wl, db, f.clock, ycsb.Options{Threads: adsClients, Duration: scaled(adsWarmup, scale), Seed: seed + 1})
	return &adsWorld{f: f, cluster: cluster, db: db, wl: wl, seed: seed, scale: scale,
		span: scaled(adsMeasured, scale), limit: 150 * time.Millisecond, floor: int64(minFinals * scale)}, nil
}

func (w *adsWorld) measure() result {
	w.mark = w.f.mark()
	w.db.log.start(1 << 15)
	res := ycsb.Run(w.wl, w.db, w.f.clock, ycsb.Options{Threads: adsClients, Duration: w.span, Seed: w.seed})
	w.f.clock.Drain()
	m := summarize(w.db.log.ops, w.limit, w.span, w.f.bytesOnWire()-w.mark.bytes)
	w.misspecPct = res.DivergencePct()
	return result{model: m, ops: w.db.log.ops, detail: checkFloor(w.db.log.ops, m, w.floor)}
}

// verify checks the paper's Fig 11 shape against a short C2 world (same
// seed, no speculation): speculation hides the strong read behind the ad
// fetch, and the preliminary is almost always right.
func (w *adsWorld) verify(res result) string {
	f, _, db, err := newAdsDB(w.seed, false, false)
	if err != nil {
		return err.Error()
	}
	db.log.start(1 << 12)
	ycsb.Run(w.wl, db, f.clock, ycsb.Options{Threads: adsClients, Duration: scaled(adsBaselineSpan, w.scale), Seed: w.seed})
	f.clock.Drain()
	w.baselineP50 = summarize(db.log.ops, w.limit, w.span, 0).finalP50
	switch {
	case w.misspecPct >= 1:
		return fmt.Sprintf("apps.adserver.misspec_pct: %.2f%% of speculations diverged, want < 1%%", w.misspecPct)
	case float64(res.model.finalP50) > 0.85*float64(w.baselineP50):
		return fmt.Sprintf("final_p50_ms: CC2 median %v is not 15%% below the C2 baseline %v", res.model.finalP50, w.baselineP50)
	}
	return ""
}

func (w *adsWorld) layers(res result) map[string]float64 {
	out := w.f.since(w.mark, w.mark.at+w.span, 3*serverWorkers).layers(res.model.ok)
	maps.Copy(out, cassandraLayers(w.cluster))
	out["apps.adserver.misspec_pct"] = w.misspecPct
	out["apps.adserver.spec_cut_pct"] = 100 * (1 - float64(res.model.finalP50)/float64(w.baselineP50))
	return out
}

// ---- sessions_rw_checked ------------------------------------------------

const (
	sessClients = 12
	// The register checker decides histories of at most 512 operations per
	// key, so the request skew is capped: Zipfian with constant 0.5 over
	// 5000 records puts 0.7% of the requests on the hottest key (YCSB's
	// default 0.99 would put 3.8% there).
	sessRecords  = 5000
	sessSkew     = 0.5
	sessMeasured = 60 * time.Second
	sessWarmup   = 36 * time.Second
	sessPace     = 5 * time.Millisecond
)

type sessClient struct {
	sess *binding.Session
	rng  *rand.Rand
}

type sessWorld struct {
	f       *fabric
	cluster *cassandra.Cluster
	clients []sessClient
	gen     ycsb.Generator
	wl      ycsb.Workload
	rec     *history.Recorder
	log     *opLog
	span    time.Duration
	limit   time.Duration
	floor   int64
	mark    fabricMark
}

func setupSessions(seed int64, scale float64, traced bool) (world, error) {
	f := newFabric(seed, traced)
	cluster, err := f.newCassandra(seed, 1, 0)
	if err != nil {
		return nil, err
	}
	w := &sessWorld{f: f, cluster: cluster, rec: history.NewRecorder(), log: &opLog{},
		wl:   ycsb.WorkloadA(ycsb.DistZipfian, sessRecords, 64),
		gen:  ycsb.NewZipfian(sessRecords, sessSkew),
		span: scaled(sessMeasured, scale), limit: 120 * time.Millisecond, floor: int64(minFinals * scale)}
	regions := cluster.Regions()
	for i := 0; i < sessClients; i++ {
		region := regions[i%len(regions)]
		label := fmt.Sprintf("sess-%02d", i)
		// R=2/W=2 over three replicas: the quorums intersect, which is what
		// makes the register-linearizability check sound.
		b := cassandra.NewBinding(cassandra.NewClient(cluster, region, region),
			cassandra.BindingConfig{StrongQuorum: 2, WriteQuorum: 2})
		opts := []binding.Option{binding.WithObserver(w.rec), binding.WithLabel(label)}
		if f.trc != nil {
			opts = append(opts, binding.WithTracer(f.trc))
		}
		w.clients = append(w.clients, sessClient{
			sess: binding.NewSession(binding.NewClient(b, opts...)),
			rng:  rand.New(rand.NewSource(seed + 1_000_003*int64(i) + 7)),
		})
	}
	// The keyspace is not preloaded — a preload is a write outside the
	// recorded history, which the register checker reports as a phantom —
	// so the warm-up phase is recorded too and only its latencies are
	// discarded. The warm-up also runs the checkers once, over the history
	// so far: most of this workload's host time is theirs.
	w.run(scaled(sessWarmup, scale))
	if _, detail := w.check(); detail != "" {
		return nil, fmt.Errorf("warm-up history: %s", detail)
	}
	return w, nil
}

// check runs every checker over the whole recorded history.
func (w *sessWorld) check() (result, string) {
	ops := w.rec.Ops()
	vs := history.CheckSessionGuarantees(ops)
	vs = append(vs, history.CheckCrossObjectWFR(ops)...)
	lin, inconclusive := history.CheckRegisters(ops, 0)
	vs = append(vs, lin...)
	res := result{violations: len(vs) + w.rec.Collisions(), inconclusive: len(inconclusive)}
	if n := w.rec.Collisions(); n > 0 {
		return res, fmt.Sprintf("history.violations: %d client-label collisions", n)
	}
	return res, historyDetail(vs, inconclusive)
}

// run drives every client closed-loop, paced, until the model instant
// now+span.
func (w *sessWorld) run(span time.Duration) {
	clock := w.f.clock
	until := clock.Now() + span
	ctx := context.Background()
	g := clock.NewGroup()
	for i := range w.clients {
		c := &w.clients[i]
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for {
				now := clock.Now()
				if now >= until {
					return
				}
				key := ycsb.Key(w.gen.Next(c.rng))
				if c.rng.Float64() < w.wl.ReadProportion {
					w.log.add(timed(clock, "get", now, now, c.sess.Get(ctx, key)))
				} else {
					w.log.add(timed(clock, "put", now, now, c.sess.Put(ctx, key, w.wl.Value(c.rng))))
				}
				clock.Sleep(sessPace)
			}
		})
	}
	g.Wait()
}

func (w *sessWorld) measure() result {
	w.mark = w.f.mark()
	w.log.start(1 << 15)
	w.run(w.span)
	w.f.clock.Drain()
	m := summarize(w.log.ops, w.limit, w.span, w.f.bytesOnWire()-w.mark.bytes)
	out, detail := w.check()
	out.model, out.ops = m, w.log.ops
	if out.detail = checkFloor(w.log.ops, m, w.floor); out.detail == "" {
		out.detail = detail
	}
	return out
}

// historyDetail renders the first checker complaint, "" when clean.
func historyDetail(vs []history.Violation, inconclusive []string) string {
	switch {
	case len(vs) > 0:
		return fmt.Sprintf("history.violations: %d, first: %s", len(vs), vs[0].String())
	case len(inconclusive) > 0:
		return fmt.Sprintf("history.inconclusive: %d objects, first: %s", len(inconclusive), inconclusive[0])
	}
	return ""
}

func (w *sessWorld) layers(res result) map[string]float64 {
	out := w.f.since(w.mark, w.mark.at+w.span, 3*serverWorkers).layers(res.model.ok)
	maps.Copy(out, cassandraLayers(w.cluster))
	out["history.ops_recorded"] = float64(w.rec.Len())
	out["history.violations"] = float64(res.violations)
	out["history.inconclusive"] = float64(res.inconclusive)
	return out
}

// cassandraLayers reports the cluster-side counters shared by the
// cassandra-backed worlds.
func cassandraLayers(cluster *cassandra.Cluster) map[string]float64 {
	out := map[string]float64{}
	hs := cluster.HintStats()
	out["cassandra.hints_queued"] = float64(hs.Queued)
	out["cassandra.hints_replayed"] = float64(hs.Replayed)
	perShard := make([]float64, cluster.Shards())
	for s := range perShard {
		for _, region := range cluster.Regions() {
			perShard[s] += float64(cluster.ReplicaAt(s, region).Server().Handled())
		}
	}
	out["cassandra.shard_fairness_jain"] = jain(perShard)
	return out
}

// jain is Jain's fairness index (1 = perfectly even).
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
