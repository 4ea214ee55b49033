package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/core"
	"correctables/internal/history"
	"correctables/internal/load"
	"correctables/internal/metrics"
)

// The capacity study: the sharded storage plane's headline experiment.
// One cell per shard count runs an open-loop session storm on a fresh
// VirtualClock — three Poisson arrival generators (one per region) drive
// closed-loop sessions through the admission gate into per-region
// token-aware cassandra bindings — and the row records attained throughput,
// coordinator saturation, per-shard fairness and sampled view latencies.
// Offered load deliberately exceeds a cell's estimated capacity by the
// same factor at every shard count, so the throughput column measures what
// the plane can actually serve and the scaling factor T(8)/T(1) is a
// capacity ratio, not an offered-load echo. The full-size run pushes one
// million sessions through the widest cell on a single VirtualClock
// (ROADMAP item 18's 10^6-session scale).
const (
	// capSessionsPerShardRegion is the full-size per-region offered rate in
	// sessions/s per shard: 3 regions x 8 shards x 600 = 14,400 sessions/s
	// offered in the widest cell, ~1.65x its estimated capacity.
	capSessionsPerShardRegion = 600
	// capOpsPerSession: put own key, strong-read it back, ICG-read a
	// shared key (the measured op).
	capOpsPerSession = 3
	// capOwnKeys bounds the own-key space so replica tables stay flat
	// across a million sessions.
	capOwnKeys = 1 << 16
	// capSharedKeys is the preloaded uniform read pool.
	capSharedKeys = 4096
	// capLatencySample: one session in 8 records its measured-read
	// latencies (exact-sample histograms; sampling bounds their memory).
	capLatencySample = 8
	// capCheckedSessions/capCheckedKeys size the checked sub-population:
	// recorded sessions running through the same bindings on an exclusive,
	// non-preloaded keyspace, verified per cell with the session checkers
	// plus register linearizability.
	capCheckedSessions = 6
	capCheckedKeys     = 12
)

// CapacityRow is one shard-count cell of the study.
type CapacityRow struct {
	Shards int `json:"shards"`
	// OfferedSessionsPerSec is the aggregate Poisson arrival rate.
	OfferedSessionsPerSec float64 `json:"offered_sessions_per_sec"`
	// SessionsStarted counts arrivals; Completed finished all ops,
	// Aborted hit an admission rejection (the gate shedding overload).
	SessionsStarted   int64 `json:"sessions_started"`
	SessionsCompleted int64 `json:"sessions_completed"`
	SessionsAborted   int64 `json:"sessions_aborted"`
	// Ops counts completed storage operations (bulk population only).
	Ops int64 `json:"ops"`
	// ElapsedMs is the model time from first arrival to last completion.
	ElapsedMs float64 `json:"elapsed_ms"`
	// ThroughputOps / ThroughputSessions are attained rates over Elapsed.
	ThroughputOps      float64 `json:"throughput_ops"`
	ThroughputSessions float64 `json:"throughput_sessions"`
	// Sampled measured-read latencies: the weak (preliminary) and strong
	// (final) views of the shared-pool ICG read.
	WeakMeanMs  float64 `json:"weak_mean_ms"`
	WeakP99Ms   float64 `json:"weak_p99_ms"`
	FinalMeanMs float64 `json:"final_mean_ms"`
	FinalP99Ms  float64 `json:"final_p99_ms"`
	// UtilizationPct is aggregate coordinator saturation: total reserved
	// service time across every replica server over total slot capacity
	// (regions x shards x workers x elapsed).
	UtilizationPct float64 `json:"utilization_pct"`
	// FairnessJain is Jain's index over per-shard handled-request counts
	// (1.0 = perfectly even keyspace spread).
	FairnessJain    float64 `json:"fairness_jain"`
	PerShardHandled []int64 `json:"per_shard_handled"`
	// Check verifies the cell's recorded sub-population.
	Check *CheckReport `json:"check"`
}

// CapacityResult is the full study.
type CapacityResult struct {
	Description string        `json:"description"`
	Seed        int64         `json:"seed"`
	HorizonMs   float64       `json:"horizon_ms"`
	Rows        []CapacityRow `json:"rows"`
	// ScalingX is attained ops throughput at the widest cell over the
	// 1-shard cell — the capacity-scaling headline.
	ScalingX float64 `json:"scaling_x"`
	untraced
}

// Violations sums every cell's history-check violations.
func (res *CapacityResult) Violations() int {
	n := 0
	for _, r := range res.Rows {
		n += r.Check.Violations()
	}
	return n
}

func capOwnKey(i int) string    { return fmt.Sprintf("cap-own-%05d", i&(capOwnKeys-1)) }
func capSharedKey(i int) string { return fmt.Sprintf("cap-pool-%04d", i) }
func capCheckedKey(i int) string {
	return fmt.Sprintf("cap-chk-%02d", i)
}

// jainIndex computes Jain's fairness index over xs (1 = perfectly fair,
// 1/n = maximally skewed). Empty or all-zero input reports 0.
func jainIndex(xs []int64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// capacityCell runs one shard-count cell on a fresh fabric.
func capacityCell(cfg Config, shards int, horizon time.Duration, perRegionRate float64) CapacityRow {
	h := newWorld(cfg, nil, horizon)
	clock := h.clock
	cluster := h.newCassandra(cfg, cassandraOpts{
		correctable: true,
		confirmOpt:  true,
		shards:      shards,
	})
	regions := cluster.Regions()
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < capSharedKeys; i++ {
		cluster.Preload(capSharedKey(i), val)
	}

	// The gate's static buckets are sized with 2x headroom over the offered
	// rate — they exist to bound abusive clients, not to shed. Shedding is
	// the AIMD bucket's job, driven by coordinator queue delay, so aborted
	// sessions measure genuine overload rather than bucket mis-sizing. The
	// global bucket sees all regions: rates are aggregate ops rates.
	perRegionOps := capOpsPerSession * perRegionRate
	aggregateOps := perRegionOps * float64(len(regions))
	gate := h.gate(load.Config{
		PerClientRate:  2 * perRegionOps,
		PerClientBurst: perRegionOps / 2,
		Sample: func() time.Duration {
			// Backpressure on the most loaded replica anywhere in the fleet.
			// Watching one region is not enough: quorum and write-ack legs
			// go to each coordinator's closest peer, so the geographically
			// central region (IRL here — both FRK and VRG pick it) carries
			// double leg load and is where the queue actually builds.
			var max time.Duration
			for s := 0; s < shards; s++ {
				for _, region := range regions {
					if d := cluster.ReplicaAt(s, region).Server().QueueDelay(); d > max {
						max = d
					}
				}
			}
			return max
		},
		SampleEvery: 20 * time.Millisecond,
		Threshold:   25 * time.Millisecond,
		MinRate:     aggregateOps / 10,
		MaxRate:     2 * aggregateOps,
	})
	// One binding per region: sessions are colocated with their
	// coordinator (capacity, not geography, is the axis here) and the
	// clients are token-aware — each operation goes to its key's
	// owner-shard coordinator, so the contact-node routing hop would only
	// re-serialize what sharding just spread out.
	bindings := make([]binding.Binding, len(regions))
	bulk := make([]*binding.Client, len(regions))
	for i, region := range regions {
		cc := cassandra.NewClient(cluster, region, region)
		cc.TokenAware = true
		// R=2/W=2 over three replicas: the quorums intersect, so the
		// register-linearizability check on the recorded sub-population is
		// sound (the paper's W=1 default would make strong reads able to
		// miss a completed write outright).
		bindings[i] = cassandra.NewBinding(cc, cassandra.BindingConfig{StrongQuorum: 2, WriteQuorum: 2})
		bulk[i] = binding.NewClient(bindings[i],
			binding.WithLabel(fmt.Sprintf("cap-%s", region)),
			binding.WithAdmission(gate))
	}

	var started, completed, aborted, opsDone atomic.Int64
	weakHist, finalHist := metrics.NewHistogram(), metrics.NewHistogram()
	weakHist.Reserve(int(horizon.Seconds()*perRegionRate) * 3 / capLatencySample)
	finalHist.Reserve(int(horizon.Seconds()*perRegionRate) * 3 / capLatencySample)
	ctx := context.Background()

	// One Poisson generator per region. Keys and the sampling decision are
	// drawn inside fire (arrival order is deterministic); the session body
	// runs as an actor.
	for ri := range regions {
		bc := bulk[ri]
		rng := rand.New(rand.NewSource(cfg.Seed + 1_000_003*int64(ri) + 17))
		h.arrive(load.NewPoisson(perRegionRate, cfg.Seed+41+int64(ri)), horizon, func(i int) func() {
			own := capOwnKey(rng.Intn(capOwnKeys))
			shared := capSharedKey(rng.Intn(capSharedKeys))
			sample := i%capLatencySample == 0
			return func() {
				started.Add(1)
				if _, err := binding.InvokeStrong[binding.Ack](ctx, bc, binding.Put{Key: own, Value: val}).Final(ctx); err != nil {
					aborted.Add(1)
					return
				}
				opsDone.Add(1)
				if _, err := binding.InvokeStrong[[]byte](ctx, bc, binding.Get{Key: own}).Final(ctx); err != nil {
					aborted.Add(1)
					return
				}
				opsDone.Add(1)
				// The measured op: an ICG read of the shared pool. Its weak
				// latency is its first view's: the final's when the
				// preliminary was lost.
				t0 := clock.Now()
				cor := binding.Invoke[[]byte](ctx, bc, binding.Get{Key: shared})
				if _, err := cor.Final(ctx); err != nil {
					aborted.Add(1)
					return
				}
				opsDone.Add(1)
				if sample {
					t := core.TimingOf(cor, t0)
					weak := t.Final
					if t.HasPrelim {
						weak = t.Prelim
					}
					weakHist.Record(weak)
					finalHist.Record(t.Final)
				}
				completed.Add(1)
			}
		})
	}

	// Checked sub-population: recorded sessions through the same bindings
	// on an exclusive, non-preloaded keyspace (preloads would be phantom
	// writes to the register checker), no admission and no retries (a
	// retried write could land twice server-side and break attribution).
	rec := history.NewRecorder()
	h.sessions(rec, sessionMix{
		n:       capCheckedSessions,
		label:   "chk-%02d",
		binding: func(i int) binding.Binding { return bindings[i%len(bindings)] },
		seed:    func(i int) int64 { return cfg.Seed + 500_009*int64(i) + 29 },
		key:     capCheckedKey,
		keys:    capCheckedKeys,
		reads:   0.6,
		value:   func(*rand.Rand) []byte { return val },
		pace:    10 * time.Millisecond,
	})

	elapsed := h.mustRun()

	perShard := make([]int64, shards)
	var busy time.Duration
	for s := 0; s < shards; s++ {
		for _, region := range regions {
			srv := cluster.ReplicaAt(s, region).Server()
			perShard[s] += srv.Handled()
			busy += srv.BusyModelTime()
		}
	}
	capacity := float64(len(regions)*shards*cassandraWorkers) * elapsed.Seconds()
	return CapacityRow{
		Shards:                shards,
		OfferedSessionsPerSec: perRegionRate * float64(len(regions)),
		SessionsStarted:       started.Load(),
		SessionsCompleted:     completed.Load(),
		SessionsAborted:       aborted.Load(),
		Ops:                   opsDone.Load(),
		ElapsedMs:             metrics.Ms(elapsed),
		ThroughputOps:         metrics.Throughput(opsDone.Load(), elapsed),
		ThroughputSessions:    metrics.Throughput(completed.Load(), elapsed),
		WeakMeanMs:            metrics.Ms(weakHist.Mean()),
		WeakP99Ms:             metrics.Ms(weakHist.Percentile(99)),
		FinalMeanMs:           metrics.Ms(finalHist.Mean()),
		FinalP99Ms:            metrics.Ms(finalHist.Percentile(99)),
		UtilizationPct:        100 * busy.Seconds() / capacity,
		FairnessJain:          jainIndex(perShard),
		PerShardHandled:       perShard,
		Check:                 buildCheckReport(rec, capCheckedSessions, modelRegisters),
	}
}

// Capacity runs the shard-count capacity study. Quick mode shrinks the
// horizon and offered rates for tests and the CI smoke gate; the full run
// is the 10^6-session study behind BENCH_capacity.json.
func Capacity(cfg Config) *CapacityResult {
	horizon := cfg.pickDur(70*time.Second, 1500*time.Millisecond)
	ratePerShardRegion := float64(cfg.pick(capSessionsPerShardRegion, 120))
	res := &CapacityResult{
		Description: "attained throughput, saturation and fairness vs shard count (open-loop sessions through admission gate)",
		Seed:        cfg.Seed,
		HorizonMs:   metrics.Ms(horizon),
	}
	for _, shards := range []int{1, 2, 4, 8} {
		res.Rows = append(res.Rows, capacityCell(cfg, shards, horizon, ratePerShardRegion*float64(shards)))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.ThroughputOps > 0 {
		res.ScalingX = last.ThroughputOps / first.ThroughputOps
	}
	return res
}
