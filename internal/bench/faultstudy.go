package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/ycsb"
)

// FaultStudyRow is one phase of the fault study: weak-vs-strong latency,
// availability and divergence. Completed operations are bucketed by the
// phase they started in; failed ones by the phase their timeout fired in,
// so a fault's casualties are charged to the fault's own row rather than
// to the baseline an op happened to start under. Latencies are model-time
// milliseconds (the paper's axes).
type FaultStudyRow struct {
	Phase   string  `json:"phase"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`

	Reads      int64 `json:"reads"`
	ReadErrors int64 `json:"read_errors"`
	Writes     int64 `json:"writes"`
	WriteErr   int64 `json:"write_errors"`
	Prelims    int64 `json:"prelim_views"`

	PrelimMeanMs float64 `json:"prelim_mean_ms"`
	PrelimP99Ms  float64 `json:"prelim_p99_ms"`
	FinalMeanMs  float64 `json:"final_mean_ms"`
	FinalP99Ms   float64 `json:"final_p99_ms"`
	UpdateMeanMs float64 `json:"update_mean_ms"`

	// ReadAvailabilityPct is the percentage of attempted reads whose final
	// view arrived within the operation timeout. Preliminary views keep
	// flowing even for reads whose final times out — the paper's asymmetry.
	ReadAvailabilityPct float64 `json:"read_availability_pct"`
	DivergencePct       float64 `json:"divergence_pct"`
	// DroppedMsgs counts messages lost to the fault schedule (severed or
	// dropped) during the phase, from the meter's dropped counters.
	DroppedMsgs int64 `json:"dropped_msgs"`
	// HintedMsgs counts async replication sends the coordinator buffered as
	// hints during the phase instead of losing them to the fault — hinted
	// handoff's share of the would-be drops.
	HintedMsgs int64 `json:"hinted_msgs"`
	// Rejected/Shed/Retried are the meter's admission-outcome counters
	// diffed at phase boundaries (attempts, not operations) — zero unless
	// an admission gate or retry policy fronts a population, but always
	// reported so fault rows and overload rows read the same way.
	Rejected int64 `json:"rejected_attempts"`
	Shed     int64 `json:"shed_attempts"`
	Retried  int64 `json:"retried_attempts"`
}

// FaultStudyResult is the fault study's full output; it marshals directly
// to BENCH_faultstudy.json.
type FaultStudyResult struct {
	Scenario    string          `json:"scenario"`
	Description string          `json:"description"`
	UnitMs      float64         `json:"unit_ms"`
	OpTimeoutMs float64         `json:"op_timeout_ms"`
	Threads     int             `json:"threads"`
	Seed        int64           `json:"seed"`
	Rows        []FaultStudyRow `json:"rows"`
	// Transitions is the injector's applied-transition log ("4s: partition
	// {eu-frankfurt eu-ireland} | {us-virginia}"), the replay record.
	Transitions []string `json:"transitions"`
	// Check verifies the checked session population's recorded history.
	Check *CheckReport `json:"check"`
	Observed
}

// CheckReport is the outcome of verifying the checked session population's
// recorded history.
type CheckReport struct {
	// Clients and Ops size the checked population and its history.
	Clients int `json:"clients"`
	Ops     int `json:"ops"`
	// SessionViolations and LinViolations render each detected violation
	// with its witness subsequence (empty = verified clean). Reproduce any
	// of them with the run's Seed: replay is byte-identical.
	SessionViolations []string `json:"session_violations"`
	LinViolations     []string `json:"linearizability_violations"`
	// Inconclusive lists keys the linearizability search could not decide
	// (not violations): it exhausted its configuration budget, or the key's
	// history holds a segment of over 512 ops, typically the stretch after
	// an ambiguous op, where no cut falls (history.CheckLinearizable).
	Inconclusive []string `json:"inconclusive_keys,omitempty"`
	// HistoryDigest is the SHA-256 of the serialized history: same seed,
	// same digest — the byte-identical-replay witness.
	HistoryDigest string `json:"history_digest"`
}

// Violations reports the total number of detected violations.
func (r *CheckReport) Violations() int {
	return len(r.SessionViolations) + len(r.LinViolations)
}

// Violations reports the checked population's violations.
func (res *FaultStudyResult) Violations() int { return res.Check.Violations() }

// FaultStudy runs YCSB workload B against Correctable Cassandra (CC3:
// quorum 3, so the strong view needs every region) under a fault schedule,
// and reports per-phase weak-vs-strong latency, availability and
// divergence, plus the verdict on a checked session population's history.
// The scenario comes from cfg.Faults — a catalog name or "<seed>:<profile>"
// for a random schedule — defaulting to minority-partition, whose partition
// and crash phases demonstrate the paper's headline asymmetry: preliminary
// (weak) views ride the live client<->coordinator link unperturbed while
// final (strong) views stall on the severed region and degrade or time out
// with faults.ErrUnreachable.
func FaultStudy(cfg Config) (*FaultStudyResult, error) {
	unit := cfg.pickDur(2*time.Second, 300*time.Millisecond)
	spec := cfg.Faults
	if spec == "" {
		spec = "minority-partition"
	}
	scen, err := faults.ParseSpec(spec, unit)
	if err != nil {
		return nil, err
	}
	// One unit shorter than the catalog's 4u partition/crash windows: reads
	// that start early in a fault window exhaust the timeout and fail with
	// faults.ErrUnreachable (the availability dip), while later ones stall
	// until the heal and complete with degraded final latency (the latency
	// story) — the study shows both failure modes.
	opTimeout := 3 * unit
	threads := cfg.pick(12, 6)

	h := newWorld(cfg, scen.Schedule, scen.Horizon)
	cluster := h.newCassandra(cfg, cassandraOpts{correctable: true, opTimeout: opTimeout})
	w := workloadByName("B", ycsb.DistZipfian, 1000, 1024)
	preloadDataset(cluster, w)

	// The sampled time-series (Config.Trace): coordinator backpressure,
	// fault-schedule message loss, the hinted-handoff backlog, and the
	// client-link flow.
	h.gaugeQueueDelay(cluster.Replica(netsim.FRK).Server())
	h.gaugeDropped()
	h.gauge("hint_backlog", func() float64 {
		st := cluster.HintStats()
		return float64(st.Queued - st.Replayed)
	})
	h.gaugeClientMsgs()

	probe := h.probePhases(scen.Phases, func() int64 { return int64(cluster.HintStats().Queued) })

	gen := w.NewGenerator()

	// A background writer population on the IRL coordinator keeps foreign
	// writes flowing: the measured coordinator (FRK) learns of them only
	// through asynchronous replication, which is what gives preliminary
	// views something to diverge from — one population writing through its
	// own coordinator would never observe staleness (cf. ycsbRun).
	ctx := context.Background()
	bgWriter := cassandraClient(cluster, netsim.IRL, netsim.IRL, 0)
	for t := 0; t < threads/3+1; t++ {
		h.loop(cfg.Seed+7_777_777+int64(t)*1_000_003, 0, func(rng *rand.Rand) {
			_, _ = binding.InvokeStrong[binding.Ack](ctx, bgWriter,
				binding.Put{Key: ycsb.Key(gen.Next(rng)), Value: w.Value(rng)}).Final(ctx)
		})
	}
	// The checked population: session clients running the same YCSB mix
	// through the full invoke pipeline — sessions enforcing
	// read-your-writes/monotonic reads, a history recorder observing every
	// op — on their own keyspace, so the recorded histories are closed
	// worlds the checkers can verify completely. Half contact the FRK
	// coordinator, half IRL, which makes cross-coordinator staleness (and
	// hence the session machinery) actually exercise under faults.
	recorder := history.NewRecorder()
	checkClients := cfg.pick(6, 4)
	h.sessions(recorder, sessionMix{
		n:     checkClients,
		label: "sess-%02d",
		binding: func(t int) binding.Binding {
			coord := alternate(t, netsim.FRK, netsim.IRL)
			return cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, coord),
				cassandra.BindingConfig{StrongQuorum: 3})
		},
		seed:  func(t int) int64 { return cfg.Seed + 5_555_557 + int64(t)*1_000_003 },
		key:   func(k int) string { return fmt.Sprintf("chk-%03d", k) },
		keys:  24,
		reads: 0.65,
		value: w.Value,
	})
	// The measured population: IRL clients on the FRK coordinator (the
	// paper's remote-contact deployment), closed loop until the scenario
	// horizon. Per-thread record shards keep the loop contention-free and
	// the merge order deterministic.
	client := cassandraClient(cluster, netsim.IRL, netsim.FRK, 3)
	shards := make([][]opRecord, threads)
	for t := 0; t < threads; t++ {
		h.loop(cfg.Seed+int64(t)*1_000_003, 0, func(rng *rand.Rand) {
			now := h.clock.Now()
			key := ycsb.Key(gen.Next(rng))
			var op opRecord
			if rng.Float64() < w.ReadProportion {
				op = timed(h.clock, now, binding.Invoke[[]byte](ctx, client, binding.Get{Key: key}))
				op.isRead = true
			} else {
				op = timed(h.clock, now, binding.InvokeStrong[binding.Ack](ctx, client,
					binding.Put{Key: key, Value: w.Value(rng)}))
			}
			shards[t] = append(shards[t], op)
		})
	}
	if _, err := h.run(); err != nil {
		return nil, fmt.Errorf("bench: faultstudy %s: %w", scen.Name, err)
	}

	res := &FaultStudyResult{
		Scenario:    scen.Name,
		Description: scen.Description,
		UnitMs:      metrics.Ms(unit),
		OpTimeoutMs: metrics.Ms(opTimeout),
		Threads:     threads,
		Seed:        cfg.Seed,
		Transitions: h.transitions(),
		Observed:    h.observe(scen.Phases),
		Check:       buildCheckReport(recorder, checkClients, modelRegisters),
	}
	// Bucket the merged records by phase (phaseOf's casualty rule).
	for i, ph := range scen.Phases {
		row := FaultStudyRow{Phase: ph.Name, StartMs: metrics.Ms(ph.Start), EndMs: metrics.Ms(ph.End)}
		reads, update := newViewStats(), metrics.NewHistogram()
		var diverged, divergeBase int64
		for _, shard := range shards {
			for _, op := range shard {
				if phaseOf(scen.Phases, op) != i {
					continue
				}
				if op.isRead {
					reads.add(op)
					if op.err == nil && op.HasPrelim {
						divergeBase++
						if op.Diverged {
							diverged++
						}
					}
				} else {
					row.Writes++
					if op.err != nil {
						row.WriteErr++
					} else {
						update.Record(op.Final)
					}
				}
			}
		}
		row.Reads, row.ReadErrors, row.Prelims = reads.ops, reads.errs, reads.prelims
		row.PrelimMeanMs = metrics.Ms(reads.prelim.Mean())
		row.PrelimP99Ms = metrics.Ms(reads.prelim.Percentile(99))
		row.FinalMeanMs = metrics.Ms(reads.final.Mean())
		row.FinalP99Ms = metrics.Ms(reads.final.Percentile(99))
		row.UpdateMeanMs = metrics.Ms(update.Mean())
		row.ReadAvailabilityPct = reads.availabilityPct()
		row.DivergencePct = 100 * metrics.Ratio(diverged, divergeBase)
		c := probe.during(i)
		row.DroppedMsgs, row.HintedMsgs = c.dropped, c.hinted
		row.Rejected, row.Shed, row.Retried = c.rejected, c.shed, c.retried
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
