//go:build !race

package history

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// TestAllocGateCheckQueues pins what CheckQueues allocates on a fixed
// 1000-op history: four queues of 250 producer/consumer ops each. The budget
// is the count measured. Four in five are the queue states enqueue steps
// build (one string each); the rest are the memo tables as they grow, and per
// queue its selected ops, its linearizability history and its segment
// bounds, slices grown by append. The undivided search allocated 1676 on
// the same history, one memo key per configuration among them.
func TestAllocGateCheckQueues(t *testing.T) {
	const budget = 696
	var ops []Op
	for q := 0; q < 4; q++ {
		ops = append(ops, producerConsumer(fmt.Sprintf("q-%02d", q), 250, int64(q+1))...)
	}
	slices.SortStableFunc(ops, func(a, b Op) int { return cmp.Compare(a.Start, b.Start) })
	if vs, inconclusive := CheckQueues(ops, 0); len(vs)+len(inconclusive) != 0 {
		t.Fatalf("history not linearizable: %v %v", vs, inconclusive)
	}
	if got := testing.AllocsPerRun(10, func() { CheckQueues(ops, 0) }); got > budget {
		t.Fatalf("CheckQueues: %.0f allocs on %d ops, budget %d", got, len(ops), budget)
	}
}
