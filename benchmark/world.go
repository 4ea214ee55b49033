package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"correctables/internal/cassandra"
	"correctables/internal/core"
	"correctables/internal/metrics"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// fabric is the simulation substrate every world is built on: one virtual
// clock, one meter, one transport. trc is nil unless the repetition is the
// traced one; the stores and clients of a world thread it through their
// public SetTrace/WithTracer setters.
type fabric struct {
	clock *netsim.VirtualClock
	meter *netsim.Meter
	tr    *netsim.Transport
	trc   *trace.Tracer
}

func newFabric(seed int64, traced bool) *fabric {
	clock := netsim.NewVirtualClock()
	meter := netsim.NewMeter()
	f := &fabric{clock: clock, meter: meter, tr: netsim.NewTransport(clock, netsim.DefaultLatencies(), meter, seed+1)}
	if traced {
		f.trc = trace.New()
		f.tr.SetTrace(f.trc)
	}
	return f
}

// newCassandra builds a cluster with the service-time model the repo's own
// experiments use (internal/bench): 4 workers per replica, 2ms reads and
// writes, 0.5ms preliminary flush, 10% read repair.
func (f *fabric) newCassandra(seed int64, shards int, opTimeout time.Duration) (*cassandra.Cluster, error) {
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        f.tr,
		Correctable:      true,
		ConfirmationOpt:  true,
		Shards:           shards,
		Workers:          serverWorkers,
		ReadServiceTime:  2 * time.Millisecond,
		WriteServiceTime: 2 * time.Millisecond,
		FlushServiceTime: 500 * time.Microsecond,
		ReadRepairChance: 0.1,
		OpTimeout:        opTimeout,
		Seed:             seed,
	})
	if err != nil {
		return nil, err
	}
	if f.trc != nil {
		cluster.SetTrace(f.trc)
	}
	return cluster, nil
}

// serverWorkers is the worker-slot count of every simulated server.
const serverWorkers = 4

// bytesOnWire sums the delivered bytes over every link class.
func (f *fabric) bytesOnWire() int64 {
	var n int64
	for _, s := range f.meter.Snapshot() {
		n += s.Bytes
	}
	return n
}

// opRec is one client/app operation as the harness saw it, in model time.
// due is the instant the operation was due to start (equal to the start for
// closed loops); prelim and final are latencies from due.
type opRec struct {
	kind      string
	due       time.Duration
	start     time.Duration // actual start; later than due when a paced client ran behind
	prelim    time.Duration
	final     time.Duration
	hasPrelim bool
	err       error // nil when the final view arrived
	// tag is workload-defined: the ramp step of an open-loop arrival.
	tag int
	// attempts counts the invocations the operation took (see untilOK).
	attempts int
}

// opLog collects the operations of the measured phase. Worlds switch it on
// after the warm-up phase, so warm-up samples are discarded. The mutex is
// for the Go memory model only: under a VirtualClock one actor runs at a
// time.
type opLog struct {
	mu  sync.Mutex
	on  bool
	ops []opRec
}

func (l *opLog) add(r opRec) {
	l.mu.Lock()
	if l.on {
		l.ops = append(l.ops, r)
	}
	l.mu.Unlock()
}

func (l *opLog) start(capacity int) {
	l.mu.Lock()
	l.on = true
	l.ops = make([]opRec, 0, capacity)
	l.mu.Unlock()
}

// model is the model-time result of one repetition. A deterministic
// simulator must reproduce it bit for bit from the same seed, so the
// harness compares whole values with ==.
type model struct {
	attempted int64
	ok        int64
	inLimit   int64
	prelims   int
	prelimP50 time.Duration
	finalP50  time.Duration
	finalP99  time.Duration
	span      time.Duration // measured model time
	bytes     int64         // meter bytes, all link classes, measured phase
}

// summarize folds the logged operations into the model metrics. limit is
// the workload's latency limit on the final view; span is the measured
// model time.
func summarize(ops []opRec, limit, span time.Duration, bytes int64) model {
	m := model{attempted: int64(len(ops)), span: span, bytes: bytes}
	prelim, final := metrics.NewHistogram(), metrics.NewHistogram()
	prelim.Reserve(len(ops))
	final.Reserve(len(ops))
	for i := range ops {
		op := &ops[i]
		if op.hasPrelim {
			prelim.Record(op.prelim)
		}
		if op.err != nil {
			continue
		}
		m.ok++
		final.Record(op.final)
		if op.final <= limit {
			m.inLimit++
		}
	}
	m.prelims = prelim.Count()
	m.prelimP50 = prelim.Percentile(50)
	m.finalP50 = final.Percentile(50)
	m.finalP99 = final.Percentile(99)
	return m
}

func (m model) goodput() float64 { return float64(m.inLimit) / m.span.Seconds() }

func (m model) completedPct() float64 { return 100 * float64(m.ok) / float64(m.attempted) }

func (m model) bytesPerOp() float64 { return float64(m.bytes) / float64(m.ok) }

// result is what one repetition's measured phase hands back.
type result struct {
	model model
	// violations and inconclusive are the history checkers' verdicts
	// (worlds without a recorder leave them zero).
	violations   int
	inconclusive int
	// detail names the first failed output check, "" when all passed.
	detail string
	// ops is the measured phase's operation log (the traced repetition
	// derives the harness spans and the per-step metrics from it).
	ops []opRec
}

// world is one built and warmed-up simulation, ready for its measured
// phase. measure runs it to completion — traffic, Drain and every output
// check — and is what the harness times. layers reports the exact
// model-side per-layer counters of the finished run (traced repetition).
type world interface {
	measure() result
	layers(res result) map[string]float64
}

// verifier is implemented by worlds with an output check too expensive for
// the timed phase; the harness runs it once, untimed, on the first
// repetition's result. It returns "" when the check passes.
type verifier interface {
	verify(res result) string
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// manyWorlds marks the workload that sweeps many small faulted worlds
	// on several workers. It runs at the default GOMAXPROCS (every other
	// workload is one world, whose actors the virtual clock runs one at a
	// time, and is measured at GOMAXPROCS 1), and it cannot return the
	// goroutine count to its baseline (see settleLeaky).
	manyWorlds bool
	// setup builds the world, preloads it and runs the warm-up phase.
	// scale shrinks every model duration (tests run 1/20 worlds).
	setup func(seed int64, scale float64, traced bool) (world, error)
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// timed waits for one invocation through the Correctables API and returns
// its record: latency to the first preliminary view (if one was delivered)
// and to the final view, both from due.
func timed[T any](clock netsim.Clock, kind string, due, start time.Duration, cor *core.Correctable[T]) opRec {
	rec := opRec{kind: kind, due: due, start: start}
	cor.OnUpdate(func(v core.View[T]) {
		if !v.Final && !rec.hasPrelim {
			rec.hasPrelim = true
			rec.prelim = clock.Now() - due
		}
	})
	_, err := cor.Final(context.Background())
	rec.final = clock.Now() - due
	rec.err = err
	rec.attempts = 1
	return rec
}

// untilOK re-issues an operation until an attempt delivers its final view,
// as an at-least-once client does. Under fault injection an attempt can
// time out (the store bounds every invocation in model time); the
// operation then costs the time-outs it sat through, counted from due, but
// it does not fail. Each attempt is its own invocation to a history
// recorder, so a timed-out mutation stays in the history as an ambiguous
// operation the checkers must account for.
func untilOK(attempt func() opRec) opRec {
	rec := attempt()
	for n := 2; rec.err != nil; n++ {
		prev := rec
		rec = attempt()
		rec.attempts, rec.start = n, prev.start
		if prev.hasPrelim {
			// The first preliminary view the client saw stands.
			rec.hasPrelim, rec.prelim = true, prev.prelim
		}
	}
	return rec
}

// payload returns n deterministic printable bytes.
func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

// minFinals is the least number of completed operations a full-size
// measured phase must deliver: the p99 needs ten samples beyond it.
const minFinals = 1000

// checkFloor is the shared output check on the measured phase: every
// attempted operation completed, and enough of them for the percentiles.
func checkFloor(ops []opRec, m model, minFinals int64) string {
	for i := range ops {
		if err := ops[i].err; err != nil {
			return fmt.Sprintf("completed_ops_pct: %d of %d operations failed, first: %s due at %v: %v",
				m.attempted-m.ok, m.attempted, ops[i].kind, ops[i].due, err)
		}
	}
	if m.ok < minFinals {
		return fmt.Sprintf("final_p99_ms: only %d finals, need %d", m.ok, minFinals)
	}
	return ""
}
