package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"correctables/internal/history"
)

// Sequential models for checkHistory's linearizability search.
const (
	modelNone      = ""          // session-level checkers only
	modelRegisters = "registers" // per-key read/write registers
	modelQueues    = "queues"    // per-queue FIFO
	// modelLadder is for plain (sessionless) clients: nothing in front of
	// them promises the session guarantees, so only the incremental ladder
	// itself — the causal cut — is checked.
	modelLadder = "ladder"
)

// historyVerdict is the outcome of checking one recorded history.
type historyVerdict struct {
	ops []history.Op
	// session holds the history-integrity, session-guarantee, cross-object
	// and causal-cut violations; lin the linearizability ones.
	session, lin []history.Violation
	// inconclusive lists keys the linearizability search could not decide
	// (not violations; CheckReport.Inconclusive says why).
	inconclusive []string
}

// checkHistory is the one checker list every checked experiment and the
// hunt share: client-label collisions (an untrustworthy history), the
// session guarantees (read-your-writes, monotonic reads,
// writes-follow-reads), cross-object writes-follow-reads (sound for the
// checked stores — their version tokens come from one store-wide counter,
// zxid or version, so cross-key comparison is meaningful), the causal-cut
// checker over the incremental ladder, and the Wing & Gong search against
// the model's sequential specification. A new checker is added here, once.
func checkHistory(rec *history.Recorder, model string) historyVerdict {
	v := historyVerdict{ops: rec.Ops()}
	if n := rec.Collisions(); n > 0 {
		v.session = append(v.session, history.Violation{
			Guarantee: "history-integrity",
			Detail:    fmt.Sprintf("%d client-label collisions — the recorded history is untrustworthy", n),
		})
	}
	if model != modelLadder {
		v.session = append(v.session, history.CheckSessionGuarantees(v.ops)...)
		v.session = append(v.session, history.CheckCrossObjectWFR(v.ops)...)
	}
	v.session = append(v.session, history.CheckCausalCut(v.ops)...)
	switch model {
	case modelRegisters:
		v.lin, v.inconclusive = history.CheckRegisters(v.ops, 0)
	case modelQueues:
		v.lin, v.inconclusive = history.CheckQueues(v.ops, 0)
	}
	return v
}

// historyDigest is the SHA-256 over the serialized histories, in order:
// same seed, same digest — the byte-identical-replay witness.
func historyDigest(histories ...[]history.Op) string {
	sum := sha256.New()
	for _, ops := range histories {
		sum.Write(history.SerializeOps(ops))
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// buildCheckReport verifies a recorded history (checkHistory) and renders
// the report every checked experiment carries in its result.
func buildCheckReport(rec *history.Recorder, clients int, model string) *CheckReport {
	v := checkHistory(rec, model)
	report := &CheckReport{
		Clients:       clients,
		Ops:           len(v.ops),
		Inconclusive:  v.inconclusive,
		HistoryDigest: historyDigest(v.ops),
	}
	for _, viol := range v.session {
		report.SessionViolations = append(report.SessionViolations, viol.String())
	}
	for _, viol := range v.lin {
		report.LinViolations = append(report.LinViolations, viol.String())
	}
	return report
}
