package history

import (
	"cmp"
	"fmt"
	"slices"
)

// clientGroup is one client's keyed operations across every object, in
// start order — the scope of the cross-object session checker.
type clientGroup struct {
	client string
	ops    []*Op
}

// clientGroups partitions keyed operations by client, each group sorted by
// start time. Unkeyed operations are skipped (queue operations have their
// own checkers). A group points into ops.
func clientGroups(ops []Op) []clientGroup {
	idx := map[string]int{}
	var groups []clientGroup
	for i := range ops {
		op := &ops[i]
		if op.Key == "" {
			continue
		}
		gi, ok := idx[op.Client]
		if !ok {
			gi = len(groups)
			idx[op.Client] = gi
			groups = append(groups, clientGroup{client: op.Client})
		}
		groups[gi].ops = append(groups[gi].ops, op)
	}
	for i := range groups {
		slices.SortStableFunc(groups[i].ops, byStart)
	}
	slices.SortFunc(groups, func(a, b clientGroup) int { return cmp.Compare(a.client, b.client) })
	return groups
}

// CheckCrossObjectWFR checks writes-follow-reads ACROSS objects, per
// client: a completed write on any key must commit at a version token at
// least as new as the newest token the client had observed — on any key —
// before issuing it. The per-key writes-follow-reads check cannot see the
// ordering between a read of "a" and a subsequent write of "b"; this
// checker can, because it folds one floor over the client's whole keyed
// history.
//
// Precondition: version tokens must be globally comparable across keys.
// That holds for the stores in this repository (the Cassandra model stamps
// every mutation from one cluster-wide counter), and is exactly what makes
// the cross-object statement meaningful: an older token on a different key
// really is an older state of the store. Do not run this checker against a
// binding with per-key version spaces.
//
// As in floorScan, only operations that terminated before this op started
// constrain it (overlapping ops constrain nothing), and each client yields
// at most one (minimal) witness.
func CheckCrossObjectWFR(ops []Op) []Violation {
	var out []Violation
	groups := clientGroups(ops)
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
						Guarantee: "cross-object-writes-follow-reads",
						Client:    g.client,
						Key:       op.Key,
						Detail: fmt.Sprintf("write on %q committed at version %d although the client had already observed version %d on %q",
							op.Key, fv.Version, floor, floorOp.Key),
						Witness: []Op{*floorOp, *op},
					})
					return true
				}
				return false
			})
	}
	return out
}
