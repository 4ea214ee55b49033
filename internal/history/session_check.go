package history

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Violation is one detected consistency violation, carrying the minimal
// witness subsequence of the history that exhibits it. Together with the
// run's seed (deterministic replay) a violation is a complete repro.
type Violation struct {
	// Guarantee names the violated property ("read-your-writes",
	// "monotonic-reads", "writes-follow-reads", "linearizability").
	Guarantee string
	// Client is the session the violation belongs to ("" for whole-object
	// properties like linearizability).
	Client string
	// Key is the replicated object.
	Key string
	// Detail explains the violation in one sentence.
	Detail string
	// Witness is the minimal op subsequence exhibiting the violation.
	Witness []Op
}

// String renders the violation with its witness, one op per line.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s violation", v.Guarantee)
	if v.Client != "" {
		fmt.Fprintf(&b, " (client %s)", v.Client)
	}
	if v.Key != "" {
		fmt.Fprintf(&b, " on %q", v.Key)
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	for i := range v.Witness {
		fmt.Fprintf(&b, "\n    %s", v.Witness[i].String())
	}
	return b.String()
}

// sessionGroup is one client's operations on one object, in start order.
type sessionGroup struct {
	client string
	key    string
	ops    []*Op
}

// sessionGroups partitions keyed operations by (client, key), each group
// sorted by start time. Unkeyed operations are skipped. A group points into
// ops: checkers that share a history build the groups once and read them in
// place; none of them writes.
func sessionGroups(ops []Op) []sessionGroup {
	idx := map[[2]string]int{}
	var groups []sessionGroup
	for i := range ops {
		op := &ops[i]
		if op.Key == "" {
			continue
		}
		gk := [2]string{op.Client, op.Key}
		gi, ok := idx[gk]
		if !ok {
			gi = len(groups)
			idx[gk] = gi
			groups = append(groups, sessionGroup{client: op.Client, key: op.Key})
		}
		groups[gi].ops = append(groups[gi].ops, op)
	}
	for i := range groups {
		slices.SortStableFunc(groups[i].ops, byStart)
	}
	slices.SortFunc(groups, func(a, b sessionGroup) int {
		if c := cmp.Compare(a.client, b.client); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	return groups
}

// byStart orders operations by invocation instant.
func byStart(a, b *Op) int { return cmp.Compare(a.Start, b.Start) }

// tokenEvent is a version token established by an op that terminated at
// end; it constrains only operations that start at or after end ("earlier"
// in the session sense — sequential sessions satisfy this for every
// consecutive pair, overlapping ops constrain nothing).
type tokenEvent struct {
	end     time.Duration
	version uint64
	op      *Op
}

// byEnd orders token events by the instant they were established.
func byEnd(a, b tokenEvent) int { return cmp.Compare(a.end, b.end) }

// floorScan folds completed-before-start token events over ops, which are
// in start order: for each op it calls check with the highest constraint
// established by ops that terminated before this one started (floorOp is
// nil while floor is 0), after emit has (possibly) contributed each
// terminated op's own event. It stops after check reports a violation, so
// each scan yields at most one (minimal) witness.
func floorScan(ops []*Op,
	emit func(op *Op) (uint64, bool),
	check func(op *Op, floor uint64, floorOp *Op) bool,
) {
	events := make([]tokenEvent, 0, len(ops))
	for _, op := range ops {
		if !op.Done {
			continue
		}
		if v, ok := emit(op); ok {
			events = append(events, tokenEvent{end: op.End, version: v, op: op})
		}
	}
	slices.SortStableFunc(events, byEnd)
	var floor uint64
	var floorOp *Op
	next := 0
	for _, op := range ops {
		for next < len(events) && events[next].end <= op.Start {
			if events[next].version > floor {
				floor = events[next].version
				floorOp = events[next].op
			}
			next++
		}
		if check(op, floor, floorOp) {
			return
		}
	}
}

// checkRYW checks read-your-writes per (client, key): every view delivered
// to an operation must carry a version at least as new as the newest write
// this client completed on the key before the operation started. At most
// one violation (the first) is reported per group.
func checkRYW(groups []sessionGroup) []Violation {
	var out []Violation
	for gi := range groups {
		g := &groups[gi]
		floorScan(g.ops,
			func(op *Op) (uint64, bool) {
				if !op.Mutating || !op.Completed() {
					return 0, false
				}
				fv, ok := op.FinalView()
				return fv.Version, ok
			},
			func(op *Op, floor uint64, floorOp *Op) bool {
				for _, v := range op.Views {
					if v.Version < floor {
						out = append(out, Violation{
							Guarantee: "read-your-writes",
							Client:    g.client,
							Key:       g.key,
							Detail: fmt.Sprintf("%s view at version %d, but this client's write at version %d completed before the op started",
								v.Level, v.Version, floor),
							Witness: []Op{*floorOp, *op},
						})
						return true
					}
				}
				return false
			})
	}
	return out
}

// maxViewVersion is the shared "what did this op observe" emit rule of the
// monotonic-reads and writes-follow-reads checkers: the newest version
// among the op's delivered views.
func maxViewVersion(op *Op) (uint64, bool) {
	var top uint64
	for _, v := range op.Views {
		if v.Version > top {
			top = v.Version
		}
	}
	return top, top > 0
}

// checkMonotonicReads checks monotonic reads per (client, key): no view may
// carry a version older than the newest version any earlier (terminated
// before this op started) operation of the same client delivered for the
// key.
func checkMonotonicReads(groups []sessionGroup) []Violation {
	var out []Violation
	for gi := range groups {
		g := &groups[gi]
		floorScan(g.ops,
			maxViewVersion,
			func(op *Op, floor uint64, floorOp *Op) bool {
				for _, v := range op.Views {
					if v.Version < floor {
						out = append(out, Violation{
							Guarantee: "monotonic-reads",
							Client:    g.client,
							Key:       g.key,
							Detail: fmt.Sprintf("%s view regressed to version %d after an earlier op observed version %d",
								v.Level, v.Version, floor),
							Witness: []Op{*floorOp, *op},
						})
						return true
					}
				}
				return false
			})
	}
	return out
}

// checkWritesFollowReads checks writes-follow-reads per (client, key): a
// completed write must be ordered (by version token) after every state the
// client had observed for the key before issuing it.
func checkWritesFollowReads(groups []sessionGroup) []Violation {
	var out []Violation
	for gi := range groups {
		g := &groups[gi]
		floorScan(g.ops,
			maxViewVersion,
			func(op *Op, floor uint64, floorOp *Op) bool {
				if !op.Mutating || !op.Completed() {
					return false
				}
				fv, ok := op.FinalView()
				if ok && fv.Version > 0 && fv.Version < floor {
					out = append(out, Violation{
						Guarantee: "writes-follow-reads",
						Client:    g.client,
						Key:       g.key,
						Detail: fmt.Sprintf("write committed at version %d although the client had already observed version %d",
							fv.Version, floor),
						Witness: []Op{*floorOp, *op},
					})
					return true
				}
				return false
			})
	}
	return out
}

// CheckSessionGuarantees runs the three session checkers — read-your-writes,
// monotonic reads, writes-follow-reads — over one grouping of the history.
func CheckSessionGuarantees(ops []Op) []Violation {
	groups := sessionGroups(ops)
	out := checkRYW(groups)
	out = append(out, checkMonotonicReads(groups)...)
	out = append(out, checkWritesFollowReads(groups)...)
	return out
}
