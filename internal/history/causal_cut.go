package history

import (
	"fmt"

	"correctables/internal/core"
)

// CheckCausalCut checks the incremental ladder itself: the views an
// operation delivers must form a causal cut — each successive view is at
// least as strong and at least as new as every view delivered before it —
// and the strong end of the ladder must never regress across a client's
// operations. Concretely, per operation:
//
//   - levels are non-decreasing in delivery order (cache ≤ causal ≤ strong
//     — a Correctable only ever refines upward);
//   - no view carries a version older than a cache-level view the same
//     operation already delivered. The cache view is the client's own
//     memory — a monotone floor of what this client has established — so
//     regressing below it (a causal view older than the cache it claims to
//     refine, say) is a ladder bug, full stop. Replica-served views are
//     deliberately NOT required to be mutually monotone: under retries and
//     partition-delayed quorums a fresh preliminary can legitimately
//     overtake a stale final (the paper makes the final view
//     authoritative, not version-maximal — preliminaries are speculative),
//     and two preliminaries may be served by divergent replicas. Views
//     with version 0 carry no token (absence, or a binding without
//     versions) and are unconstrained.
//
// And per (client, key), session-style: a strong-level view must carry a
// version at least as new as the newest strong-level view delivered by any
// operation that terminated before this one started. Weaker levels are
// deliberately exempt cross-op — preliminary views may regress when served
// by a different replica (that is the session checkers' department, for
// session clients) — so the check is sound for plain, sessionless ladder
// clients too.
//
// The checker is independent of the session machinery: it validates what
// the binding's fan-out delivered, before any session suppression, which
// is exactly where a lagging backup or a mis-merged cache shows up.
func CheckCausalCut(ops []Op) []Violation {
	var out []Violation

	// Intra-op: one pass per op, in the recorder's deterministic order.
	for i := range ops {
		if v, ok := intraOpCut(&ops[i]); ok {
			out = append(out, v)
		}
	}

	// Cross-op strong floor, per (client, key).
	groups := sessionGroups(ops)
	for gi := range groups {
		g := &groups[gi]
		floorScan(g.ops,
			func(op *Op) (uint64, bool) {
				if !op.Completed() {
					return 0, false
				}
				var top uint64
				for _, v := range op.Views {
					if v.Level == core.LevelStrong && v.Version > top {
						top = v.Version
					}
				}
				return top, top > 0
			},
			func(op *Op, floor uint64, floorOp *Op) bool {
				for _, v := range op.Views {
					if v.Level == core.LevelStrong && v.Version > 0 && v.Version < floor {
						out = append(out, Violation{
							Guarantee: "causal-cut",
							Client:    g.client,
							Key:       g.key,
							Detail: fmt.Sprintf("strong view regressed to version %d after an earlier op's strong view at version %d",
								v.Version, floor),
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

// intraOpCut checks one operation's ladder: level order, and the
// cache-view floor on version tokens, over its delivered views. At most
// one (the first) violation is reported.
func intraOpCut(op *Op) (Violation, bool) {
	var (
		topLevel   core.Level
		cacheFloor uint64
	)
	for i, v := range op.Views {
		if i > 0 && v.Level < topLevel {
			return Violation{
				Guarantee: "causal-cut",
				Client:    op.Client,
				Key:       op.Key,
				Detail: fmt.Sprintf("ladder delivered %v after %v — levels must be non-decreasing within an op",
					v.Level, topLevel),
				Witness: []Op{*op},
			}, true
		}
		if v.Level > topLevel {
			topLevel = v.Level
		}
		if v.Version > 0 && v.Version < cacheFloor {
			return Violation{
				Guarantee: "causal-cut",
				Client:    op.Client,
				Key:       op.Key,
				Detail: fmt.Sprintf("%v view at version %d is older than the op's own cache view at version %d",
					v.Level, v.Version, cacheFloor),
				Witness: []Op{*op},
			}, true
		}
		if v.Level == core.LevelCache && v.Version > cacheFloor {
			cacheFloor = v.Version
		}
	}
	return Violation{}, false
}
