package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/load"
	"correctables/internal/netsim"
)

// ---- sharded_open_ramp --------------------------------------------------

const (
	rampShards = 4
	// rampCapacity is the 4-shard cluster's nominal slot capacity in
	// operations per model second: 3 regions x 4 shards x 4 worker slots of
	// which one 90/10 read/write operation occupies 6.65 ms in total (an
	// R=2 ICG read reserves 2 ms at the coordinator, 0.5 ms for the
	// preliminary flush and 2 ms at one peer plus a 10% chance of a repair
	// leg; a W=2 write reserves 2 ms on each of three replicas).
	rampCapacity = 7200.0
	rampStep     = 6 * time.Second // model time per offered rate
	rampWarmup   = 12 * time.Second
	rampKeys     = 4096
	rampWindow   = time.Millisecond // coordinator batching window
	// rampRingSeed fixes the token ring (and with it how evenly the four
	// shards share the keyspace): the ring is part of the system under
	// test, not of the traffic the run seed generates.
	rampRingSeed = 3
)

// rampRates are the four offered rates, as multiples of rampCapacity,
// ascending on one world, all below the knee (see README.md: past it no
// arrival may fail, so every rejection is retried, and the retry storm
// is what the run would measure).
var rampRates = [4]float64{0.3, 0.5, 0.7, 0.9}

type rampWorld struct {
	f        *fabric
	cluster  *cassandra.Cluster
	gate     *load.Controller
	batchers []*binding.Batcher
	clients  []*binding.Client
	rngs     []*rand.Rand
	log      *opLog
	seed     int64
	step     time.Duration
	limit    time.Duration
	floor    int64
	val      []byte
	mark     fabricMark
}

func rampKey(i int) string { return fmt.Sprintf("ramp-%04d", i) }

func setupRamp(seed int64, scale float64, traced bool) (world, error) {
	f := newFabric(seed, traced)
	cluster, err := f.newCassandra(rampRingSeed, rampShards, 0)
	if err != nil {
		return nil, err
	}
	w := &rampWorld{f: f, cluster: cluster, log: &opLog{}, seed: seed, val: payload(64),
		step: scaled(rampStep, scale), limit: 300 * time.Millisecond, floor: int64(minFinals * scale)}
	for i := 0; i < rampKeys; i++ {
		cluster.Preload(rampKey(i), w.val)
	}
	regions := cluster.Regions()
	perRegionMax := rampRates[len(rampRates)-1] * rampCapacity / float64(len(regions))
	// The static per-client buckets only bound an abusive client (2x the
	// highest offered rate); shedding is the AIMD bucket's job, driven by
	// the deepest replica queue anywhere in the fleet.
	w.gate = load.NewController(load.Config{
		Clock:          f.clock,
		PerClientRate:  2 * perRegionMax,
		PerClientBurst: perRegionMax / 2,
		Sample: func() time.Duration {
			var max time.Duration
			for s := 0; s < rampShards; s++ {
				for _, region := range regions {
					if d := cluster.ReplicaAt(s, region).Server().QueueDelay(); d > max {
						max = d
					}
				}
			}
			return max
		},
		SampleEvery:       20 * time.Millisecond,
		Threshold:         50 * time.Millisecond,
		MinRate:           rampCapacity / 4,
		MaxRate:           2 * rampCapacity,
		IncreasePerSample: rampCapacity / 32,
		DecreaseFactor:    0.85,
		Meter:             f.meter,
	})
	w.gate.Start()
	for i, region := range regions {
		cc := cassandra.NewClient(cluster, region, region)
		cc.TokenAware = true
		bt := binding.NewBatcher(cassandra.NewBinding(cc, cassandra.BindingConfig{StrongQuorum: 2, WriteQuorum: 2}),
			f.clock, rampWindow)
		opts := []binding.Option{
			binding.WithLabel("ramp-" + string(region)),
			binding.WithAdmission(w.gate),
			// A rejected attempt did no protocol work, so re-submitting it
			// is safe; the budget is effectively unbounded so that every
			// arrival completes once the ramp ends and the backlog drains.
			binding.WithRetry(binding.RetryPolicy{
				Max: 1 << 20, Base: 20 * time.Millisecond, Cap: 160 * time.Millisecond,
				Jitter: 0.5, Seed: seed + 1000 + int64(i),
				OnRetry: func(int, time.Duration, error) { f.meter.AccountRetried(netsim.LinkClient) },
			}),
		}
		if f.trc != nil {
			opts = append(opts, binding.WithTracer(f.trc))
		}
		w.batchers = append(w.batchers, bt)
		w.clients = append(w.clients, binding.NewClient(bt, opts...))
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed+1_000_003*int64(i)+17)))
	}
	// Warm-up: open-loop arrivals at the lowest rate, samples discarded.
	w.arrivals(rampRates[1], scaled(rampWarmup, scale), -1, seed+500)
	f.clock.SleepUntil(f.clock.Now() + scaled(rampWarmup, scale))
	return w, nil
}

// arrivals starts one Poisson generator per region at rate x capacity / 3
// for span of model time from now. Each arrival is timed from its due
// instant; the generator fires exactly at it, so lateness is 0 by
// construction in model time.
func (w *rampWorld) arrivals(rate float64, span time.Duration, tag int, seed int64) {
	clock := w.f.clock
	ctx := context.Background()
	perRegion := rate * rampCapacity / float64(len(w.clients))
	for ri, bc := range w.clients {
		bc, rng := bc, w.rngs[ri]
		fire := func(int) {
			due := clock.Now()
			key := rampKey(rng.Intn(rampKeys))
			isRead := rng.Float64() < 0.9
			clock.Go(func() {
				var rec opRec
				if isRead {
					rec = timed(clock, "get", due, due, binding.Invoke[[]byte](ctx, bc, binding.Get{Key: key}))
				} else {
					rec = timed(clock, "put", due, due, binding.InvokeStrong[binding.Ack](ctx, bc, binding.Put{Key: key, Value: w.val}))
				}
				rec.tag = tag
				w.log.add(rec)
			})
		}
		load.Start(clock, load.NewPoisson(perRegion, seed+int64(ri)), clock.Now()+span, fire)
	}
}

func (w *rampWorld) measure() result {
	clock := w.f.clock
	w.mark = w.f.mark()
	w.log.start(1 << 16)
	for i, rate := range rampRates {
		w.arrivals(rate, w.step, i, w.seed+41+10*int64(i))
		clock.SleepUntil(w.mark.at + time.Duration(i+1)*w.step)
	}
	// The ramp is over; Drain runs the retrying backlog to completion (the
	// gate's sampler is stopped first, or it would keep the clock alive).
	w.gate.Stop()
	clock.Drain()
	span := time.Duration(len(rampRates)) * w.step
	m := summarize(w.log.ops, w.limit, span, w.f.bytesOnWire()-w.mark.bytes)
	return result{model: m, ops: w.log.ops, detail: checkFloor(w.log.ops, m, w.floor)}
}

func (w *rampWorld) layers(res result) map[string]float64 {
	span := time.Duration(len(rampRates)) * w.step
	out := w.f.since(w.mark, w.mark.at+span, 3*rampShards*serverWorkers).layers(res.model.ok)
	maps.Copy(out, cassandraLayers(w.cluster))
	var batched, dispatches int64
	for _, bt := range w.batchers {
		o, d := bt.Stats()
		batched += o
		dispatches += d
	}
	if dispatches > 0 {
		out["cassandra.batch_mean_ops"] = float64(batched) / float64(dispatches)
	}
	ls := w.f.meter.Load(netsim.LinkClient)
	attempts := float64(res.model.attempted + ls.Rejected)
	out["load.rejected_pct"] = 100 * float64(ls.Rejected) / attempts
	out["load.shed_pct"] = 100 * float64(ls.Shed) / attempts
	out["load.admit_rate_end"] = w.gate.AdmitRate()
	out["load.gen_late_max_ms"] = 0
	out["binding.retries_per_kop"] = 1000 * float64(ls.Retried) / float64(res.model.ok)
	maxInSLO := 0
	for i := range rampRates {
		var step []opRec
		for _, op := range res.ops {
			if op.tag == i {
				step = append(step, op)
			}
		}
		sm := summarize(step, w.limit, w.step, 0)
		out[fmt.Sprintf("load.step%d.final_p99_ms", i+1)] = ms(sm.finalP99)
		out[fmt.Sprintf("load.step%d.goodput_per_model_s", i+1)] = sm.goodput()
		if sm.finalP99 <= w.limit && maxInSLO == i {
			maxInSLO = i + 1
		}
	}
	out["load.max_step_in_slo"] = float64(maxInSLO)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
