//go:build !race

package history

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// TestAllocGateRecorder pins what recording costs: an op is stored by value
// in the recorder's op arena and its two views in its slots of the view
// arena, so recording n two-view ops allocates only the arena chunks (and
// the recorder), amortized at most 0.1 per op, when the views carry queue
// items, whose note is the item's ID. A byte value over 16 bytes costs its
// note, one string per op: the second view renders the same note and
// shares the first one's string (noteAfter).
func TestAllocGateRecorder(t *testing.T) {
	const n = 4096
	record := func(weak, strong binding.OpView) func() {
		return func() {
			rec := NewRecorder()
			info := binding.OpInfo{Client: "c", Name: "dequeue", Key: "q"}
			for i := 0; i < n; i++ {
				info.ID = binding.OpID(i + 1)
				info.Start = ms(i)
				rec.OpStart(info)
				rec.OpView(info, weak)
				rec.OpView(info, strong)
				rec.OpEnd(info, ms(i+1), nil)
			}
		}
	}
	item := binding.Item{ID: "q-0000000001", Data: []byte("payload"), Exists: true}
	value := bytes.Repeat([]byte("v"), 64)
	for _, c := range []struct {
		name         string
		weak, strong binding.OpView
		budgetPerOp  float64
	}{
		{"item notes",
			binding.OpView{Level: core.LevelWeak, Value: item},
			binding.OpView{Level: core.LevelStrong, Final: true, Value: item}, 0.1},
		{"64-byte values",
			binding.OpView{Level: core.LevelWeak, Value: value},
			binding.OpView{Level: core.LevelStrong, Final: true, Value: value}, 1.1},
	} {
		got := testing.AllocsPerRun(5, record(c.weak, c.strong)) / n
		t.Logf("%s: %.3f allocs per recorded op", c.name, got)
		if got > c.budgetPerOp {
			t.Errorf("%s: %.3f allocs per recorded op, budget %.1f", c.name, got, c.budgetPerOp)
		}
	}
}

// TestAllocGateSessionCheckers pins what the session checkers allocate on a
// fixed clean 1200-op history of six clients over four keys, as the
// sessions benchmark runs them: CheckSessionGuarantees and then
// CheckCrossObjectWFR. The budget is the count measured. Each builds its
// groups as slices of pointers into the history, grown by append (the
// (client, key) groups once for the three session checkers, the client
// groups once for the cross-object one), with the group index maps, and
// each floor scan of a group allocates its token events, once.
func TestAllocGateSessionCheckers(t *testing.T) {
	const budget = 315
	ops := sessionHistory(6, 4, 200)
	if vs := append(CheckSessionGuarantees(ops), CheckCrossObjectWFR(ops)...); len(vs) != 0 {
		t.Fatalf("history not clean: %v", vs[0])
	}
	got := testing.AllocsPerRun(10, func() {
		CheckSessionGuarantees(ops)
		CheckCrossObjectWFR(ops)
	})
	if got > budget {
		t.Fatalf("session checkers: %.0f allocs on %d ops, budget %d", got, len(ops), budget)
	}
}

// TestAllocGateCheckQueues pins what CheckQueues allocates on a fixed
// 1000-op history: four queues of 250 producer/consumer ops each. The budget
// is the count measured. Four in five are the queue states enqueue steps
// build (one string each); the rest are the memo tables as they grow, and per
// queue its selected ops (pointers into the history) and its segment
// bounds, slices grown by append, and its linearizability history, sized
// once from the selected ops. The undivided search allocated 1676 on the
// same history, one memo key per configuration among them, and the
// segmented one 696 while the selected ops were copies and the
// linearizability history grew by append.
func TestAllocGateCheckQueues(t *testing.T) {
	const budget = 664
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
