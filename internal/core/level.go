// Package core implements the Correctable abstraction: a generalization of
// Promises that represents not one but several future values, corresponding
// to incremental views of the result of an operation on a replicated object.
//
// A Correctable starts in the Updating state. Each preliminary view triggers
// a same-state transition (Updating -> Updating) and the OnUpdate callbacks.
// When the final view (or an error) becomes available the Correctable closes,
// transitioning to Final (or Error) exactly once.
//
// This package is the paper's "core library" (§3): creation, state
// transitions, callback delivery and speculation. Of the features
// Correctables inherit from modern Promises, which the paper elides for
// space (§3.2: "error handling, timeouts, or other features inherited from
// modern Promises, such as aggregation or monadic-style chaining"), it keeps
// only those an app, example or experiment calls: Failed and Finally.
// Operation timeouts live in the invoke pipeline (binding.WithOpTimeout),
// not on the Correctable. Storage-specific protocol code lives in bindings
// (package binding and the per-store packages).
package core

import "fmt"

// Level identifies a consistency level attached to a view. Bindings advertise
// an ordered list of the levels they support, from weakest to strongest
// (§5.1). The numeric ordering below is the library-wide ranking used when an
// application asks to wait for "at least" a given level.
type Level int

// The consistency levels used by the bindings in this repository. A binding
// may support any ordered subset. LevelNone is the zero value and never
// appears in a delivered view.
const (
	LevelNone Level = iota
	// LevelCache: value served from a client-local cache. May be arbitrarily
	// stale; latency is essentially zero.
	LevelCache
	// LevelWeak: eventually consistent value, e.g. a single-replica read in a
	// quorum system (R=1) or a local simulation of an operation on one
	// replica's state.
	LevelWeak
	// LevelCausal: causally consistent value.
	LevelCausal
	// LevelStrong: strongly consistent (linearizable / quorum-reconciled /
	// totally ordered) value.
	LevelStrong
)

// String returns the human-readable name of the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelCache:
		return "cache"
	case LevelWeak:
		return "weak"
	case LevelCausal:
		return "causal"
	case LevelStrong:
		return "strong"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// AtLeast reports whether l is at least as strong as other.
func (l Level) AtLeast(other Level) bool { return l >= other }

// Levels is an ordered set of consistency levels, weakest first.
type Levels []Level

// Contains reports whether ls contains l.
func (ls Levels) Contains(l Level) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// Strongest returns the strongest level in ls, or LevelNone if empty.
func (ls Levels) Strongest() Level {
	max := LevelNone
	for _, x := range ls {
		if x > max {
			max = x
		}
	}
	return max
}

// Sorted returns a copy of ls ordered weakest to strongest with duplicates
// and LevelNone entries removed. Bindings use this to normalize the level
// subset passed to Invoke.
func (ls Levels) Sorted() Levels {
	seen := make(map[Level]bool, len(ls))
	out := make(Levels, 0, len(ls))
	for _, x := range ls {
		if x == LevelNone || seen[x] {
			continue
		}
		seen[x] = true
		out = append(out, x)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
