// Package bench contains one driver per table/figure of the paper's
// evaluation (§6). Each driver sets up the simulated deployment the paper
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
	// it; the paper's figures always run fault-free.
	Faults string
	// FaultLog prints the applied fault transitions alongside the
	// fault-study table.
	FaultLog bool
	// Check adds a consistency-checked session population to the
	// faultstudy and failover experiments: its clients run through the
	// session API with a history recorder attached, and the recorded
	// history is verified after the run (session guarantees plus per-key
	// register and per-queue linearizability).
	Check bool
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
