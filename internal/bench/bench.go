// Package bench contains the drivers of the paper's evaluation (§6), one
// per table/figure except Fig8, which reads Figures 7 and 8 off the same
// worlds (the paper measures Fig 8's bandwidth under Fig 7's divergence
// conditions). Each driver sets up the simulated deployment the paper
// used, runs the experiment, and returns typed rows whose shape mirrors the
// corresponding figure; cmd/icgbench prints them, and PAPER.md's figure
// table states the claim each driver is checked against.
//
// All drivers run on the deterministic virtual clock and report latencies
// in model time, i.e. on the paper's axes, so same-seed runs produce
// byte-identical results. They take a Config carrying the seed and a Quick
// flag that shrinks sample counts and durations for tests and smoke runs.
package bench

import "time"

// Config controls an experiment run.
type Config struct {
	// Seed fixes all randomness.
	Seed int64
	// Quick shrinks sample counts and durations (tests, smoke runs).
	Quick bool
	// Faults selects the fault-study scenario: a catalog name
	// (faults.ScenarioNames) or "<seed>:<profile>" for a random schedule.
	// Empty means minority-partition. Only the faultstudy experiment reads
	// it; the paper's figures always run fault-free. Every fault experiment
	// verifies the history of its checked session population and reports
	// its applied fault transitions: neither is optional.
	Faults string
	// Trace attaches the model-time span tracer and time-series registry
	// to the experiment fabric (faultstudy, failover, overload). The
	// result then carries a latency decomposition per phase, sampled
	// gauges, and a tracer exportable as Chrome trace-event JSON
	// (icgbench -trace). Tracing never perturbs model time — spans are
	// stamped from the same virtual instants the experiment already
	// observes — so traced and untraced runs report identical rows.
	Trace bool
}

// pick returns full or quick depending on cfg.Quick.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

func (c Config) pickDur(full, quick time.Duration) time.Duration {
	if c.Quick {
		return quick
	}
	return full
}
