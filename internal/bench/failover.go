package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// FailoverRow is one (population, phase) cell of the failover experiment:
// enqueue counts, weak-vs-strong latency and final availability for one
// client population during one phase of the leader outage.
type FailoverRow struct {
	// Population is "majority" (clients on the surviving side, contacting
	// IRL) or "minority" (clients contacting the severed old leader, FRK).
	Population string  `json:"population"`
	Phase      string  `json:"phase"`
	StartMs    float64 `json:"start_ms"`
	EndMs      float64 `json:"end_ms"`

	Ops     int64 `json:"ops"`
	Errors  int64 `json:"errors"`
	Prelims int64 `json:"prelim_views"`

	PrelimMeanMs float64 `json:"prelim_mean_ms"`
	PrelimP99Ms  float64 `json:"prelim_p99_ms"`
	FinalMeanMs  float64 `json:"final_mean_ms"`
	FinalP99Ms   float64 `json:"final_p99_ms"`

	// FinalAvailabilityPct is the percentage of attempted enqueues whose
	// committed (strong) acknowledgment arrived within the operation
	// timeout. Preliminary views keep flowing even while finals fail — the
	// paper's asymmetry, now measured through a leader failover.
	FinalAvailabilityPct float64 `json:"final_availability_pct"`
}

// FailoverResult is the failover experiment's full output; it marshals
// directly to BENCH_failover.json.
type FailoverResult struct {
	Description string  `json:"description"`
	UnitMs      float64 `json:"unit_ms"`
	OpTimeoutMs float64 `json:"op_timeout_ms"`
	// HeartbeatMs and ElectionTimeoutMs are the recovery machinery's tuning
	// (the election bound every recovery metric is judged against).
	HeartbeatMs       float64 `json:"heartbeat_ms"`
	ElectionTimeoutMs float64 `json:"election_timeout_ms"`
	FaultAtMs         float64 `json:"fault_at_ms"`
	HealAtMs          float64 `json:"heal_at_ms"`
	HorizonMs         float64 `json:"horizon_ms"`
	Threads           int     `json:"threads"`
	Seed              int64   `json:"seed"`

	// ElectedAtMs is the model instant the majority elected a new leader;
	// TimeToRecoveryMs is that instant relative to the fault — the window
	// during which no ordered commits were possible anywhere.
	ElectedAtMs      float64 `json:"elected_at_ms"`
	TimeToRecoveryMs float64 `json:"time_to_recovery_ms"`
	NewLeader        string  `json:"new_leader"`
	Epoch            uint64  `json:"epoch"`
	// FirstFinalAfterFaultMs is when the first post-fault enqueue committed
	// (majority side), and PrelimOnlyWindowMs its distance from the fault:
	// the measured window during which the service was preliminary-only.
	// OutagePrelims counts the weak views delivered inside that window —
	// nonzero is the paper's availability claim under failover.
	FirstFinalAfterFaultMs float64 `json:"first_final_after_fault_ms"`
	PrelimOnlyWindowMs     float64 `json:"prelim_only_window_ms"`
	OutagePrelims          int64   `json:"outage_prelims"`

	Rows        []FailoverRow `json:"rows"`
	Transitions []string      `json:"transitions"`
	Check       *CheckReport  `json:"check"`
	// Observed's decomposition has this experiment's signature in its
	// election column: it lights up exactly in the outage phase.
	Observed
}

// Violations reports the checked population's violations.
func (res *FailoverResult) Violations() int { return res.Check.Violations() }

// Failover runs a closed-loop enqueue workload against Correctable
// ZooKeeper while a partition severs the leader's region mid-run: the
// majority side elects a new leader (heartbeat loss, staggered election
// timeouts, state transfer) and its finals resume; the severed minority
// keeps serving preliminary views the whole time; the heal deposes and
// resyncs the old leader. The experiment measures time-to-recovery, the
// preliminary-only availability window, and weak-vs-strong latency per
// phase — recovery as a first-class, measured scenario rather than a
// pass/fail test.
//
// A consistency-checked session population runs alongside the measured one,
// and its recorded history is verified (session guarantees plus per-queue
// linearizability) across the failover.
func Failover(cfg Config) (*FailoverResult, error) {
	unit := cfg.pickDur(2*time.Second, 300*time.Millisecond)
	hb := unit / 8
	et := unit / 2
	opTimeout := unit
	faultAt := 4 * unit
	healAt := 12 * unit
	horizon := 16 * unit
	threads := cfg.pick(12, 6)

	sched := faults.NewSchedule().
		At(faultAt, faults.Partition{Groups: [][]netsim.Region{
			{netsim.FRK}, {netsim.IRL, netsim.VRG},
		}}).
		At(healAt, faults.Heal{})
	h := newWorld(cfg, sched, horizon)
	e := h.newZK(cfg, zkOpts{
		correctable:     true,
		leader:          netsim.FRK,
		probe:           "maj-00", // the first majority queue, created below
		opTimeout:       opTimeout,
		heartbeat:       hb,
		electionTimeout: et,
	})

	// The sampled time-series (Config.Trace): the commit epoch steps at
	// the election, the election counter marks attempts, and client-link
	// traffic shows the enqueue flow surviving the outage as prelims.
	h.gauge("commit_epoch", func() float64 { return float64(e.CommitEpoch()) })
	h.gauge("elections", func() float64 { return float64(len(e.Elections())) })
	h.gaugeClientMsgs()
	h.gaugeDropped()

	// Queues are created up front (healthy cluster) so the workload phase
	// measures enqueues only.
	setup := zk.NewQueueClient(e, netsim.IRL, netsim.IRL)
	pops := []struct {
		name    string
		threads int
		contact netsim.Region
		queue   string // fmt pattern for thread t's queue
	}{
		// Majority: remote clients contacting a surviving follower — they
		// lose finals only until the election, prelims throughout.
		{"majority", threads, netsim.IRL, "maj-%02d"},
		// Minority: clients pinned to the severed old leader — finals fail
		// for the whole partition, prelims keep coming from local state.
		{"minority", threads / 2, netsim.FRK, "min-%02d"},
	}
	for _, pop := range pops {
		for t := 0; t < pop.threads; t++ {
			if err := setup.CreateQueue(fmt.Sprintf(pop.queue, t)); err != nil {
				return nil, fmt.Errorf("bench: creating %s: %w", fmt.Sprintf(pop.queue, t), err)
			}
		}
	}

	ctx := context.Background()
	payload := make([]byte, 64)
	shards := make([][][]opRecord, len(pops))
	for pi, pop := range pops {
		shards[pi] = make([][]opRecord, pop.threads)
		for t := 0; t < pop.threads; t++ {
			client := binding.NewClient(zk.NewBinding(zk.NewQueueClient(e, pop.contact, pop.contact)))
			queue := fmt.Sprintf(pop.queue, t)
			// Closed loop, no random draws: the seed is unused.
			h.loop(0, 0, func(*rand.Rand) {
				shards[pi][t] = append(shards[pi][t], timed(h.clock, h.clock.Now(),
					binding.Invoke[binding.Item](ctx, client, binding.Enqueue{Queue: queue, Item: payload})))
			})
		}
	}

	// The checked population: sessions through the full invoke pipeline on
	// their own queues, half contacting the old leader, half the survivor,
	// with a history recorder observing every op.
	recorder := history.NewRecorder()
	checkClients := cfg.pick(6, 4)
	for t := 0; t < checkClients; t++ {
		contact := alternate(t, netsim.IRL, netsim.FRK)
		queue := fmt.Sprintf("chk-%02d", t)
		if err := setup.CreateQueue(queue); err != nil {
			return nil, fmt.Errorf("bench: creating %s: %w", queue, err)
		}
		sess := h.session(recorder, fmt.Sprintf("sess-%02d", t),
			zk.NewBinding(zk.NewQueueClient(e, netsim.IRL, contact)))
		// Paced, not closed-loop: each timed-out op enters the
		// linearizability history as an ambiguous wildcard the search
		// must branch on, so per-queue op counts are kept where the
		// check stays conclusive.
		h.loop(cfg.Seed+5_555_557+int64(t)*1_000_003, unit/8, func(rng *rand.Rand) {
			if rng.Float64() < 0.7 {
				_, _ = sess.Enqueue(ctx, queue, payload).Final(ctx)
			} else {
				_, _ = sess.Dequeue(ctx, queue).Final(ctx)
			}
		})
	}
	if _, err := h.run(); err != nil {
		return nil, fmt.Errorf("bench: failover: %w", err)
	}

	res := &FailoverResult{
		Description: "partition severs the zk leader mid-run; the majority elects, the minority serves prelims, the heal resyncs",
		UnitMs:      metrics.Ms(unit),
		OpTimeoutMs: metrics.Ms(opTimeout),
		HeartbeatMs: metrics.Ms(hb), ElectionTimeoutMs: metrics.Ms(et),
		FaultAtMs: metrics.Ms(faultAt), HealAtMs: metrics.Ms(healAt), HorizonMs: metrics.Ms(horizon),
		Threads:     threads,
		Seed:        cfg.Seed,
		Transitions: h.transitions(),
	}

	// Recovery metrics from the election log: the fault's election is the
	// first won at or after the fault instant.
	electedAt := healAt
	for _, rec := range e.Elections() {
		if rec.At >= faultAt {
			electedAt = rec.At
			res.ElectedAtMs = metrics.Ms(rec.At)
			res.TimeToRecoveryMs = metrics.Ms(rec.At - faultAt)
			res.NewLeader = string(rec.Leader)
			res.Epoch = rec.Epoch
			break
		}
	}

	// First post-fault committed enqueue (majority side) and the prelim-only
	// window it closes.
	firstFinal := time.Duration(-1)
	for _, shard := range shards[0] {
		for _, op := range shard {
			if op.start >= faultAt && op.err == nil && (firstFinal < 0 || op.end < firstFinal) {
				firstFinal = op.end
			}
		}
	}
	if firstFinal >= 0 {
		res.FirstFinalAfterFaultMs = metrics.Ms(firstFinal)
		res.PrelimOnlyWindowMs = metrics.Ms(firstFinal - faultAt)
		for _, popShards := range shards {
			for _, shard := range popShards {
				for _, op := range shard {
					if at := op.start + op.Prelim; op.HasPrelim && at >= faultAt && at < firstFinal {
						res.OutagePrelims++
					}
				}
			}
		}
	}

	phases := []faults.Phase{
		{Name: "healthy", Start: 0, End: faultAt},
		{Name: "outage", Start: faultAt, End: electedAt},
		{Name: "elected", Start: electedAt, End: healAt},
		{Name: "rejoin", Start: healAt, End: horizon},
	}
	for pi, pop := range pops {
		for i, ph := range phases {
			st := newViewStats()
			for _, shard := range shards[pi] {
				for _, op := range shard {
					if phaseOf(phases, op) == i {
						st.add(op)
					}
				}
			}
			res.Rows = append(res.Rows, FailoverRow{
				Population: pop.name, Phase: ph.Name,
				StartMs: metrics.Ms(ph.Start), EndMs: metrics.Ms(ph.End),
				Ops: st.ops, Errors: st.errs, Prelims: st.prelims,
				PrelimMeanMs:         metrics.Ms(st.prelim.Mean()),
				PrelimP99Ms:          metrics.Ms(st.prelim.Percentile(99)),
				FinalMeanMs:          metrics.Ms(st.final.Mean()),
				FinalP99Ms:           metrics.Ms(st.final.Percentile(99)),
				FinalAvailabilityPct: st.availabilityPct(),
			})
		}
	}
	// The decomposition rows reuse the recovery phases computed above: the
	// election column is nonzero only where an election window overlaps the
	// phase — the outage row, by construction.
	res.Observed = h.observe(phases)
	res.Check = buildCheckReport(recorder, checkClients, modelQueues)
	return res, nil
}
