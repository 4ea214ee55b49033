package ycsb

import (
	"math/rand"
	"time"

	"correctables/internal/metrics"
	"correctables/internal/netsim"
)

// ReadOutcome reports what one read observed: latency of the preliminary
// view (if any), latency of the final view, and whether they diverged. All
// latencies are in model time.
type ReadOutcome struct {
	HasPrelim     bool
	PrelimLatency time.Duration
	FinalLatency  time.Duration
	Diverged      bool
}

// DB is the system under test. Implementations wrap a storage client (or an
// application-level operation, for the case studies of Fig 11) and report
// model-time latencies.
type DB interface {
	Read(rng *rand.Rand, key string) (ReadOutcome, error)
	Update(rng *rand.Rand, key string, value []byte) (time.Duration, error)
}

// Options configures a closed-loop run. All durations are model time: the
// run covers its simulated span at CPU speed.
type Options struct {
	// Threads is the number of closed-loop client threads.
	Threads int
	// Duration is how long to run, in model time.
	Duration time.Duration
	// Warmup is an initial model-time span whose samples are discarded
	// (the paper elides the first and last 15s of its 60s trials).
	Warmup time.Duration
	// Seed derives the per-thread RNGs.
	Seed int64
	// Generator overrides the workload's key chooser. Pass one shared
	// generator to several concurrent Run calls to model client
	// populations with a *global* notion of popularity/recency (essential
	// for the Latest distribution: "recently updated" must mean recently
	// updated by anyone, not by this client group).
	Generator Generator
}

// Result aggregates a run's measurements (model time throughout).
type Result struct {
	Workload Workload
	Threads  int

	Ops, Reads, Updates int64
	// Elapsed is the measured span in model time.
	Elapsed time.Duration
	// ThroughputOps is operations per model second.
	ThroughputOps float64

	// ReadFinal is the latency of final views; ReadPrelim of preliminary
	// views (empty when the DB yields none).
	ReadFinal  *metrics.Histogram
	ReadPrelim *metrics.Histogram
	UpdateLat  *metrics.Histogram

	// PrelimReads counts reads that had a preliminary view; Diverged counts
	// those whose preliminary differed from the final (Fig 7's numerator).
	PrelimReads int64
	Diverged    int64

	// Errors counts failed operations (excluded from latency stats).
	Errors int64
}

// DivergencePct returns 100 * diverged / reads-with-preliminary.
func (r *Result) DivergencePct() float64 {
	return 100 * metrics.Ratio(r.Diverged, r.PrelimReads)
}

// threadStats is one thread's private measurement shard: plain counters
// and raw latency samples, merged into the shared Result only after every
// thread has finished. With 10^5–10^6 closed-loop threads a global mutex
// per operation serializes the whole run on stats bookkeeping; per-thread
// shards keep the hot loop contention-free and make the merge order (and
// therefore the Result) a deterministic function of the thread index.
type threadStats struct {
	ops, reads, updates int64
	prelims, diverged   int64
	errs                int64
	// first is the loop-start instant of the thread's first recorded
	// operation (-1 if it never recorded); last is the completion instant
	// of its most recent recorded operation.
	first, last time.Duration

	readFinal, readPrelim, updateLat []time.Duration
}

// Run drives the workload against db with closed-loop threads and returns
// aggregated measurements. Threads are clock actors: under a VirtualClock
// the whole run executes at CPU speed and, for a fixed seed, performs the
// exact same operation sequence on every invocation. Stats are sharded per
// thread and merged after the run, so Run scales to 10^5–10^6 threads
// without a global stats lock in the operation loop.
func Run(w Workload, db DB, clock netsim.Clock, opts Options) *Result {
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	res := &Result{
		Workload:   w,
		Threads:    opts.Threads,
		ReadFinal:  metrics.NewHistogram(),
		ReadPrelim: metrics.NewHistogram(),
		UpdateLat:  metrics.NewHistogram(),
	}
	gen := opts.Generator
	if gen == nil {
		gen = w.NewGenerator()
	}
	latest, _ := gen.(*LatestGenerator)

	start := clock.Now()
	recordAfter := start + opts.Warmup
	deadline := start + opts.Duration

	shards := make([]threadStats, opts.Threads)
	g := clock.NewGroup()
	for t := 0; t < opts.Threads; t++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(t)*1_000_003))
		st := &shards[t]
		st.first = -1
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for {
				now := clock.Now()
				if now >= deadline {
					return
				}
				record := now >= recordAfter
				key := Key(gen.Next(rng))
				isRead := rng.Float64() < w.ReadProportion
				if isRead {
					out, err := db.Read(rng, key)
					if !record {
						continue
					}
					if st.first < 0 {
						st.first = now
					}
					st.last = clock.Now()
					if err != nil {
						st.errs++
					} else {
						st.ops++
						st.reads++
						st.readFinal = append(st.readFinal, out.FinalLatency)
						if out.HasPrelim {
							st.prelims++
							st.readPrelim = append(st.readPrelim, out.PrelimLatency)
							if out.Diverged {
								st.diverged++
							}
						}
					}
				} else {
					lat, err := db.Update(rng, key, w.Value(rng))
					if latest != nil {
						latest.Advance()
					}
					if !record {
						continue
					}
					if st.first < 0 {
						st.first = now
					}
					st.last = clock.Now()
					if err != nil {
						st.errs++
					} else {
						st.ops++
						st.updates++
						st.updateLat = append(st.updateLat, lat)
					}
				}
			}
		})
	}
	g.Wait()

	// Merge the shards in thread order (deterministic). The measured span
	// is the earliest recorded loop-start to the latest recorded
	// completion across all threads.
	var (
		measuredStart            time.Duration = -1
		measuredEnd              time.Duration
		nFinal, nPrelim, nUpdate int
	)
	for i := range shards {
		st := &shards[i]
		res.Ops += st.ops
		res.Reads += st.reads
		res.Updates += st.updates
		res.PrelimReads += st.prelims
		res.Diverged += st.diverged
		res.Errors += st.errs
		if st.first >= 0 {
			if measuredStart < 0 || st.first < measuredStart {
				measuredStart = st.first
			}
			if st.last > measuredEnd {
				measuredEnd = st.last
			}
		}
		nFinal += len(st.readFinal)
		nPrelim += len(st.readPrelim)
		nUpdate += len(st.updateLat)
	}
	res.ReadFinal.Reserve(nFinal)
	res.ReadPrelim.Reserve(nPrelim)
	res.UpdateLat.Reserve(nUpdate)
	for i := range shards {
		st := &shards[i]
		res.ReadFinal.RecordBatch(st.readFinal)
		res.ReadPrelim.RecordBatch(st.readPrelim)
		res.UpdateLat.RecordBatch(st.updateLat)
	}
	if measuredStart >= 0 {
		res.Elapsed = measuredEnd - measuredStart
	}
	res.ThroughputOps = metrics.Throughput(res.Ops, res.Elapsed)
	return res
}
