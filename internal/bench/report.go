package bench

import (
	"encoding/json"
	"os"
	"time"

	"correctables/internal/trace"
)

// Result is what a front end needs from any scenario experiment's outcome,
// so that one runner (cmd/icgbench) serves them all; WriteReport marshals
// the result itself.
type Result interface {
	// Format renders the printed report.
	Format() string
	// Violations counts what the run's consistency checks found.
	Violations() int
	// Traced returns the recorded tracer and gauge registry for Chrome
	// trace export; both nil for an untraced run.
	Traced() (*trace.Tracer, *trace.Registry)
}

// untraced is embedded by the results of experiments the trace plane does
// not reach (sweep, capacity, hunt).
type untraced struct{}

func (untraced) Traced() (*trace.Tracer, *trace.Registry) { return nil, nil }

// marshalReport is the one JSON encoding every experiment artifact goes
// through (BENCH_*.json, hunt repros, trace sidecars): two-space indent,
// stable field order from the result structs.
func marshalReport(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// WriteReport marshals an experiment result and writes it to path with a
// trailing newline — the shared writer behind every -fault-json artifact.
func WriteReport(path string, v any) error {
	data, err := marshalReport(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteTrace writes a recorded tracer (plus the registry's sampled gauges
// as counter tracks, when non-nil) as Chrome trace-event JSON to path —
// loadable in Perfetto / chrome://tracing. Same-seed virtual-clock runs
// produce byte-identical files.
func WriteTrace(path string, trc *trace.Tracer, reg *trace.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trc.WriteChrome(f, reg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PhaseDecomp is one phase's latency decomposition: model time accumulated
// per span category inside the phase window. Categories overlap by
// construction (a quorum wait covers its peers' net and server spans), so
// the columns decompose activity, not wall latency: each is the plain sum
// of span durations in the window — the queueing signal, doubled when two
// ops wait on the same server, which is exactly what a decomposition
// should show.
type PhaseDecomp struct {
	Phase string `json:"phase"`

	OpMs         float64 `json:"op_ms"`
	AdmissionMs  float64 `json:"admission_ms"`
	NetClientMs  float64 `json:"net_client_ms"`
	NetReplicaMs float64 `json:"net_replica_ms"`
	QueueMs      float64 `json:"queue_ms"`
	ServerMs     float64 `json:"server_ms"`
	FlushMs      float64 `json:"flush_ms"`
	QuorumMs     float64 `json:"quorum_ms"`
	HintMs       float64 `json:"hint_ms"`
	ElectionMs   float64 `json:"election_ms"`
}

// decompRow clips the tracer's spans to [start, end) and folds the
// category totals into one report row. Returns a zero row on a nil tracer.
func decompRow(trc *trace.Tracer, phase string, start, end time.Duration) PhaseDecomp {
	tt := trc.CategoryTotals(start, end)
	return PhaseDecomp{
		Phase:        phase,
		OpMs:         tt.Ms(trace.CatOp),
		AdmissionMs:  tt.Ms(trace.CatAdmission),
		NetClientMs:  tt.Ms(trace.CatNetClient),
		NetReplicaMs: tt.Ms(trace.CatNetReplica),
		QueueMs:      tt.Ms(trace.CatQueue),
		ServerMs:     tt.Ms(trace.CatServer),
		FlushMs:      tt.Ms(trace.CatFlush),
		QuorumMs:     tt.Ms(trace.CatQuorum),
		HintMs:       tt.Ms(trace.CatHint),
		ElectionMs:   tt.Ms(trace.CatElection),
	}
}
