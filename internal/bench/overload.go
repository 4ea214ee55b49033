package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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
)

// OverloadRow is one phase of one overload mode. Completed operations are
// bucketed by the phase they started in (their latency reflects the
// conditions they arrived under); failed ones by the phase they died in —
// the same casualty-attribution rule as the fault study. Attempt counters
// (rejected/shed/retried) are meter diffs at phase boundaries: they count
// attempts, not operations, so one storm-trapped op can contribute several.
type OverloadRow struct {
	Phase   string  `json:"phase"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`

	// Offered counts open-loop arrivals in the phase; the generators do not
	// slow down when the store does — that is the point.
	Offered   int64 `json:"offered"`
	Completed int64 `json:"completed"`
	// Degraded counts completions served at a preliminary (weak) level
	// because the admission controller shed the strong leg.
	Degraded int64 `json:"degraded_completions"`
	// TimedOut / RejectedOps / SessionErrs split the failed operations by
	// cause: per-attempt timeout budgets exhausted, admission rejections
	// that outlived the retry budget, and session-guarantee failures.
	TimedOut    int64 `json:"timed_out"`
	RejectedOps int64 `json:"rejected_ops"`
	SessionErrs int64 `json:"session_errors"`

	Rejected int64 `json:"rejected_attempts"`
	Shed     int64 `json:"shed_attempts"`
	Retried  int64 `json:"retried_attempts"`

	// GoodputOps is completions per second of model time; GoodputPct is the
	// same relative to this mode's baseline phase.
	GoodputOps float64 `json:"goodput_ops_per_s"`
	GoodputPct float64 `json:"goodput_pct_of_baseline"`

	FinalMeanMs float64 `json:"final_mean_ms"`
	FinalP99Ms  float64 `json:"final_p99_ms"`
}

// OverloadMode is one full run of the overload scenario: shedding off (the
// metastable collapse) or shedding on (the escape).
type OverloadMode struct {
	Mode     string `json:"mode"`
	Shedding bool   `json:"shedding"`
	// BaselineGoodput anchors the percentages (ops/second in the baseline
	// phase).
	BaselineGoodput float64 `json:"baseline_goodput_ops_per_s"`
	// PostBurstGoodputPct is the BEST post-burst phase (the larger of storm
	// and recovered) relative to baseline: the metastability witness.
	// Without shedding even the better phase stays collapsed although the
	// burst is long gone; with shedding the recovered phase returns to
	// baseline.
	PostBurstGoodputPct float64 `json:"post_burst_goodput_pct"`
	// RecoveredGoodputPct is the recovered phase alone — the escape witness.
	RecoveredGoodputPct float64       `json:"recovered_goodput_pct"`
	Rows                []OverloadRow `json:"rows"`
	// Check verifies the measured sessions' recorded history: session
	// guarantees per key plus the cross-object writes-follow-reads checker —
	// RYW must hold through the degraded phase. Register linearizability is
	// deliberately not checked here: the measured keyspace is shared with
	// unrecorded background writers, so it is not a closed world.
	Check *CheckReport `json:"check"`
	// Observed's decomposition makes the storm legible: the queue column
	// explodes in the storm phase with shedding off and the admission
	// column replaces it with shedding on.
	Observed
}

// OverloadResult is the overload experiment's full output; it marshals
// directly to BENCH_overload.json.
type OverloadResult struct {
	Description string  `json:"description"`
	UnitMs      float64 `json:"unit_ms"`
	OpTimeoutMs float64 `json:"op_timeout_ms"`
	// BaselineRate/BurstRate are the open-loop arrival rates (ops/s); the
	// burst rides on top of the baseline during the burst phase.
	BaselineRate float64 `json:"baseline_rate_ops_per_s"`
	BurstRate    float64 `json:"burst_rate_ops_per_s"`
	// CapacityOps is the coordinator's nominal service capacity (workers /
	// service time), for reading the rates against.
	CapacityOps float64        `json:"capacity_ops_per_s"`
	Sessions    int            `json:"sessions"`
	Seed        int64          `json:"seed"`
	Modes       []OverloadMode `json:"modes"`
}

// Violations sums both modes' history-check violations.
func (res *OverloadResult) Violations() int {
	n := 0
	for _, m := range res.Modes {
		n += m.Check.Violations()
	}
	return n
}

// Traced returns the shedding-on mode's tracer: the mode whose spans
// include the full admission story (rejects, degrades, backoff windows).
func (res *OverloadResult) Traced() (*trace.Tracer, *trace.Registry) {
	return res.Modes[len(res.Modes)-1].Traced()
}

// overloadParams fixes the scenario's knobs in one place so both modes run
// the identical workload.
type overloadParams struct {
	unit      time.Duration
	phases    []faults.Phase
	horizon   time.Duration
	opTimeout time.Duration

	baselineRate float64
	burstRate    float64
	sessions     int
	keys         int

	retryMax  int
	retryBase time.Duration
	retryCap  time.Duration
}

func overloadParamsFor(cfg Config) overloadParams {
	u := cfg.pickDur(time.Second, 300*time.Millisecond)
	return overloadParams{
		unit: u,
		phases: []faults.Phase{
			{Name: "baseline", Start: 0, End: 3 * u},
			{Name: "burst", Start: 3 * u, End: 5 * u},
			{Name: "storm", Start: 5 * u, End: 9 * u},
			{Name: "recovered", Start: 9 * u, End: 12 * u},
		},
		horizon: 12 * u,
		// The per-attempt timeout is the storm's trigger: once the
		// coordinator's queueing delay exceeds it, every attempt times out
		// and respawns as retries.
		opTimeout:    250 * time.Millisecond,
		baselineRate: 1200, // vs ~2000 ops/s coordinator capacity: healthy
		burstRate:    4000, // baseline+burst ≈ 2.6x capacity: decisive overload
		sessions:     cfg.pick(32, 12),
		keys:         64,
		retryMax:     3,
		retryBase:    50 * time.Millisecond,
		retryCap:     400 * time.Millisecond,
	}
}

// Overload reproduces a metastable retry storm and its escape (§ overload;
// the paper's degraded mode cast as admission control). An open-loop
// Poisson population of session clients issues strong reads (85%) and
// writes (15%) against a remote coordinator near capacity; an on/off burst
// then pushes demand past capacity for two units. Per-attempt timeouts plus
// capped-exponential retries amplify the queue into a self-sustaining storm:
// with shedding off, goodput stays collapsed long after the burst ends —
// the metastable state. With shedding on, the internal/load controller
// (per-client token buckets, AIMD backpressure on the coordinator's queue
// delay, degrade-to-preliminary under sustained overload) rejects the
// excess cheaply and serves admitted reads at the weak level, the backlog
// drains, and the recovered phase returns to baseline goodput.
//
// Both modes run the same seed on fresh fabrics, so the comparison is
// arrival-for-arrival. The measured sessions run with a history recorder,
// and the run always verifies session guarantees plus cross-object
// writes-follow-reads over the recorded history — read-your-writes must
// survive the degraded phase.
func Overload(cfg Config) (*OverloadResult, error) {
	p := overloadParamsFor(cfg)
	res := &OverloadResult{
		Description:  "metastable retry storm (shedding off) vs admission-controlled escape (shedding on)",
		UnitMs:       metrics.Ms(p.unit),
		OpTimeoutMs:  metrics.Ms(p.opTimeout),
		BaselineRate: p.baselineRate,
		BurstRate:    p.burstRate,
		CapacityOps:  cassandraCapacityOps,
		Sessions:     p.sessions,
		Seed:         cfg.Seed,
	}
	for _, shedding := range []bool{false, true} {
		mode, err := runOverloadMode(cfg, p, shedding)
		if err != nil {
			return nil, err
		}
		res.Modes = append(res.Modes, *mode)
	}
	return res, nil
}

// runOverloadMode runs the scenario once on a fresh fabric.
func runOverloadMode(cfg Config, p overloadParams, shedding bool) (*OverloadMode, error) {
	h := newWorld(cfg, nil, p.horizon)
	cluster := h.newCassandra(cfg, cassandraOpts{correctable: true})
	coord := cluster.Replica(netsim.FRK).Server()
	val := make([]byte, 128)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < p.keys; i++ {
		cluster.Preload(overloadKey(i), val)
	}

	// The admission controller (shedding mode only) fronts the measured
	// coordinator: its backpressure signal is the FRK server's queueing
	// delay, sampled in model time.
	var gate *load.Controller
	if shedding {
		gate = h.gate(load.Config{
			PerClientRate:     150,
			PerClientBurst:    30,
			Sample:            coord.QueueDelay,
			SampleEvery:       50 * time.Millisecond,
			Threshold:         60 * time.Millisecond,
			MinRate:           100,
			MaxRate:           4000,
			IncreasePerSample: 250,
			DecreaseFactor:    0.5,
			DegradeToWeak:     true,
			EnterAfter:        2,
			ExitAfter:         4,
		})
	}

	// The measured population: IRL session clients on the FRK coordinator
	// (remote contact), each with the per-attempt timeout and the retry
	// policy that makes storms possible. Sessions + recorder give the
	// history the checkers verify.
	recorder := history.NewRecorder()
	sessions := make([]*binding.Session, p.sessions)
	for i := range sessions {
		opts := []binding.Option{
			binding.WithOpTimeout(p.opTimeout),
			binding.WithRetry(binding.RetryPolicy{
				Max:    p.retryMax,
				Base:   p.retryBase,
				Cap:    p.retryCap,
				Jitter: 0.5,
				Seed:   cfg.Seed + 1000 + int64(i),
				OnRetry: func(int, time.Duration, error) {
					h.meter.AccountRetried(netsim.LinkClient)
				},
			}),
		}
		if gate != nil {
			opts = append(opts, binding.WithAdmission(gate))
		}
		sessions[i] = h.session(recorder, fmt.Sprintf("ovl-%02d", i),
			cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK),
				cassandra.BindingConfig{StrongQuorum: 2}),
			opts...)
	}

	probe := h.probePhases(p.phases, nil)

	// Background writers on the IRL coordinator create cross-coordinator
	// staleness on the measured keyspace: without them a degraded weak read
	// at FRK could never be stale, and the session machinery (and the
	// history check) would have nothing to defend against. Paced, so they
	// load FRK's replication path lightly rather than competing for its
	// capacity.
	ctx := context.Background()
	for t := 0; t < 2; t++ {
		bg := cassandraClient(cluster, netsim.IRL, netsim.IRL, 0)
		h.loop(cfg.Seed+7_777_777+int64(t)*1_000_003, 10*time.Millisecond, func(rng *rand.Rand) {
			_, _ = binding.InvokeStrong[binding.Ack](ctx, bg,
				binding.Put{Key: overloadKey(rng.Intn(p.keys)), Value: val}).Final(ctx)
		})
	}

	// Open-loop arrivals: a Poisson baseline for the whole run plus an
	// on/off burst riding on top during the burst phase. The shared rng and
	// record slice are mutex-guarded although the clock's token already
	// serializes arrival callbacks and operation actors.
	var (
		mu       sync.Mutex
		arrivals int
		records  []opRecord
		rng      = rand.New(rand.NewSource(cfg.Seed + 17))
	)

	// The sampled time-series (Config.Trace): the coordinator's queueing
	// delay is the storm itself; in-flight ops show the retry amplification;
	// the admission gauges (shedding mode) show the AIMD controller reacting.
	h.gaugeQueueDelay(coord)
	h.gauge("inflight_ops", func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return float64(arrivals - len(records))
	})
	h.gauge("retried_attempts", func() float64 {
		return float64(h.meter.Load(netsim.LinkClient).Retried)
	})
	if gate != nil {
		h.gauge("admit_rate", gate.AdmitRate)
		h.gauge("degraded", func() float64 {
			if gate.Degraded() {
				return 1
			}
			return 0
		})
	}

	fire := func(int) func() {
		mu.Lock()
		sess := sessions[arrivals%len(sessions)]
		arrivals++
		key := overloadKey(rng.Intn(p.keys))
		isRead := rng.Float64() < 0.85
		mu.Unlock()
		return func() {
			rec := opRecord{start: h.clock.Now()}
			if isRead {
				v, err := sess.Get(ctx, key, core.LevelStrong).Final(ctx)
				rec.err = err
				rec.degraded = err == nil && v.Level != core.LevelStrong
			} else {
				_, rec.err = sess.Put(ctx, key, val).Final(ctx)
			}
			rec.end = h.clock.Now()
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		}
	}
	burst := p.phases[1]
	h.arrive(load.NewPoisson(p.baselineRate, cfg.Seed+11), p.horizon, fire)
	h.clock.RunAt(burst.Start, func() {
		// OnOff with one on-window inside the horizon: the burst, then
		// silence — the recovery question is what happens after its edge.
		h.arrive(load.NewOnOff(p.burstRate, burst.End-burst.Start, p.horizon, cfg.Seed+13), burst.End, fire)
	})

	if _, err := h.run(); err != nil {
		return nil, fmt.Errorf("bench: overload: %w", err)
	}
	probe.closeLast()

	modeName := "shedding-off"
	if shedding {
		modeName = "shedding-on"
	}
	mode := &OverloadMode{Mode: modeName, Shedding: shedding, Observed: h.observe(p.phases)}

	// Bucket records into phases (phaseOf's casualty rule); arrivals count
	// where they arrived, whatever became of them.
	for i, ph := range p.phases {
		row := OverloadRow{Phase: ph.Name, StartMs: metrics.Ms(ph.Start), EndMs: metrics.Ms(ph.End)}
		final := metrics.NewHistogram()
		for _, rec := range records {
			if phaseAt(p.phases, rec.start) == i {
				row.Offered++
			}
			if phaseOf(p.phases, rec) != i {
				continue
			}
			switch {
			case rec.err == nil:
				row.Completed++
				final.Record(rec.end - rec.start)
				if rec.degraded {
					row.Degraded++
				}
			case errors.Is(rec.err, load.ErrRejected):
				row.RejectedOps++
			case errors.Is(rec.err, faults.ErrUnreachable):
				row.TimedOut++
			default:
				row.SessionErrs++
			}
		}
		c := probe.during(i)
		row.Rejected, row.Shed, row.Retried = c.rejected, c.shed, c.retried
		row.GoodputOps = float64(row.Completed) / (ph.End - ph.Start).Seconds()
		row.FinalMeanMs = metrics.Ms(final.Mean())
		row.FinalP99Ms = metrics.Ms(final.Percentile(99))
		mode.Rows = append(mode.Rows, row)
	}
	mode.BaselineGoodput = mode.Rows[0].GoodputOps
	for i := range mode.Rows {
		if mode.BaselineGoodput > 0 {
			mode.Rows[i].GoodputPct = 100 * mode.Rows[i].GoodputOps / mode.BaselineGoodput
		}
	}
	mode.PostBurstGoodputPct = mode.Rows[2].GoodputPct
	if mode.Rows[3].GoodputPct > mode.PostBurstGoodputPct {
		mode.PostBurstGoodputPct = mode.Rows[3].GoodputPct
	}
	mode.RecoveredGoodputPct = mode.Rows[3].GoodputPct

	// The always-on history check, with the default checker set (session
	// guarantees, cross-object WFR, causal-cut).
	mode.Check = buildCheckReport(recorder, p.sessions, modelNone)
	return mode, nil
}

func overloadKey(i int) string { return fmt.Sprintf("ovl-%03d", i) }
