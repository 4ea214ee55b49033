package binding

import (
	"context"
	"time"

	"correctables/internal/core"
	"correctables/internal/netsim"
)

// Batcher is a pass-through Binding, kept only because the frozen
// benchmark module still builds Batchers and a stub that names BatchEntry
// (ROADMAP item 21). Every operation goes straight to the wrapped binding,
// which also supplies the levels, the scheduler and the default timeout;
// NewBatcher ignores its clock and window, and Stats reports (0, 0).
type Batcher struct{ Binding }

// BatchEntry is unused; see Batcher.
type BatchEntry struct {
	Ctx    context.Context
	Op     Operation
	Levels core.Levels
	Cb     Callback
}

// NewBatcher wraps b; see Batcher.
func NewBatcher(b Binding, _ netsim.Clock, _ time.Duration) *Batcher { return &Batcher{b} }

// Stats reports no coalesced operations and no dispatches: (0, 0).
func (*Batcher) Stats() (ops, dispatches int64) { return 0, 0 }

// DefaultOpTimeout implements TimeoutProvider by forwarding.
func (bt *Batcher) DefaultOpTimeout() time.Duration {
	if tp, ok := bt.Binding.(TimeoutProvider); ok {
		return tp.DefaultOpTimeout()
	}
	return 0
}
