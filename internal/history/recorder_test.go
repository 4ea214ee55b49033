package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
)

// sessionHistory records, through a Recorder, perClient get/put operations
// of each of clients clients over keys keys, overlapping in model time, each
// with a weak and a final strong view. Versions are drawn in start order
// from one counter, so the history is clean for every session checker, the
// cross-object one and the register checker.
func sessionHistory(clients, keys, perClient int) []Op {
	type call struct {
		info binding.OpInfo
		end  time.Duration
	}
	rng := rand.New(rand.NewSource(7))
	var calls []call
	for c := 0; c < clients; c++ {
		end := time.Duration(0)
		for i := 0; i < perClient; i++ {
			start := max(ms(10*i+c), end)
			end = start + ms(2+rng.Intn(12))
			name := "get"
			if rng.Intn(2) == 0 {
				name = "put"
			}
			calls = append(calls, call{end: end, info: binding.OpInfo{
				ID: binding.OpID(i + 1), Client: fmt.Sprintf("c%d", c), Name: name,
				Key: fmt.Sprintf("k%d", rng.Intn(keys)), Mutating: name == "put", Start: start,
			}})
		}
	}
	slices.SortStableFunc(calls, func(a, b call) int { return int(a.info.Start - b.info.Start) })
	rec := NewRecorder()
	var counter uint64
	latest := map[string]uint64{}
	for _, c := range calls {
		v := latest[c.info.Key]
		if c.info.Mutating {
			counter++
			v, latest[c.info.Key] = counter, counter
		}
		rec.OpStart(c.info)
		rec.OpView(c.info, binding.OpView{Level: core.LevelWeak, Version: v, At: c.info.Start + ms(1)})
		rec.OpView(c.info, binding.OpView{Level: core.LevelStrong, Final: true, Version: v, At: c.end})
		rec.OpEnd(c.info, c.end, nil)
	}
	return rec.Ops()
}

// deepCopy copies ops and their views.
func deepCopy(ops []Op) []Op {
	out := slices.Clone(ops)
	for i := range out {
		out[i].Views = slices.Clone(out[i].Views)
	}
	return out
}

// TestCheckersOnlyRead: the checkers read a snapshot in place, through
// pointers into it, and none of them writes it — not on a clean history,
// and not while building the witnesses of the violations it reports.
func TestCheckersOnlyRead(t *testing.T) {
	ops := sessionHistory(6, 4, 200)
	queue := producerConsumer("q", 60, 3)
	queue[len(queue)-1].Views[0].Note = "q-9999999999" // a phantom dequeue
	ops = append(ops, queue...)
	// One violation of each guarantee, each on a client and key of its own.
	ops = append(ops,
		mkOp("ryw", "put", "x1", true, ms(0), ms(10), 5),
		mkOp("ryw", "get", "x1", false, ms(20), ms(30), 4), // and monotonic reads
		mkOp("wfr", "get", "x2", false, ms(0), ms(10), 9),
		mkOp("wfr", "put", "x2", true, ms(20), ms(30), 4),
		crossOp("cross", "x3", false, 0, 10, 40),
		crossOp("cross", "x4", true, 20, 30, 7),
		ladderOp("cut", "x5", 0, 10, 10, 7, 12), // within the op
		ladderOp("cut", "x6", 0, 10, 12),
		ladderOp("cut", "x6", 20, 30, 8), // across ops
	)
	before, want := SerializeOps(ops), deepCopy(ops)

	var found []Violation
	found = append(found, CheckSessionGuarantees(ops)...)
	found = append(found, CheckCrossObjectWFR(ops)...)
	found = append(found, CheckCausalCut(ops)...)
	regVs, regInc := CheckRegisters(ops, 0)
	queueVs, queueInc := CheckQueues(ops, 0)
	found = append(append(found, regVs...), queueVs...)
	guarantees := map[string]bool{}
	for _, v := range found {
		guarantees[v.Guarantee] = true
	}
	for _, g := range []string{"read-your-writes", "monotonic-reads", "writes-follow-reads",
		"cross-object-writes-follow-reads", "causal-cut", "linearizability"} {
		if !guarantees[g] {
			t.Errorf("no %s violation: %v", g, found)
		}
	}
	if len(regInc)+len(queueInc) != 0 {
		t.Errorf("inconclusive objects: %v %v", regInc, queueInc)
	}
	if after := SerializeOps(ops); string(after) != string(before) {
		t.Errorf("the checkers changed the history:\nbefore\n%s\nafter\n%s", before, after)
	}
	if !reflect.DeepEqual(ops, want) {
		t.Error("the checkers changed the history's ops")
	}
}

// TestOpsSnapshotIsolatedFromLaterViews: a snapshot shares its views with
// the recorder, capped at their length, so an op that is still open when
// the snapshot is taken may go on receiving views — into its arena slot,
// and past the slots through append — without changing the snapshot or the
// neighbouring op's views.
func TestOpsSnapshotIsolatedFromLaterViews(t *testing.T) {
	rec := NewRecorder()
	a := binding.OpInfo{ID: 1, Client: "a", Name: "get", Key: "k", Start: ms(1)}
	b := binding.OpInfo{ID: 1, Client: "b", Name: "get", Key: "k", Start: ms(2)}
	view := func(level core.Level, version uint64, at int, final bool) binding.OpView {
		return binding.OpView{Level: level, Version: version, At: ms(at), Final: final, Value: []byte(fmt.Sprint("v", version))}
	}
	rec.OpStart(a)
	rec.OpStart(b)
	rec.OpView(a, view(core.LevelWeak, 1, 3, false))
	rec.OpView(b, view(core.LevelWeak, 5, 3, false))
	rec.OpView(b, view(core.LevelStrong, 6, 4, true))
	rec.OpEnd(b, ms(4), nil)
	snap := rec.Ops()
	frozen := SerializeOps(snap)

	rec.OpView(a, view(core.LevelCache, 2, 5, false)) // a's second slot
	rec.OpView(a, view(core.LevelStrong, 3, 6, true)) // past the slots
	rec.OpEnd(a, ms(6), nil)
	if got := SerializeOps(snap); string(got) != string(frozen) {
		t.Errorf("snapshot changed under later views:\nbefore\n%s\nafter\n%s", frozen, got)
	}
	if v := snap[0].Views; len(v) != 1 || cap(v) != 1 {
		t.Errorf("snapshot of the open op holds %d views in room for %d, want 1 in 1: "+
			"its later views land in the arena slots behind it", len(v), cap(v))
	}
	now := rec.Ops()
	if n := len(now[0].Views); n != 3 || !now[0].Done {
		t.Fatalf("later snapshot: %s", SerializeOps(now))
	}
	if got, want := now[1].String(), snap[1].String(); got != want {
		t.Errorf("a's third view disturbed b's: %s, want %s", got, want)
	}
}

// TestRecorderArenaKeepsOrder: across arena chunks of growing size, every
// op keeps its own views and Ops returns all of them in start order.
func TestRecorderArenaKeepsOrder(t *testing.T) {
	rec := NewRecorder()
	const n = 3*arenaMax + 5
	for i := n; i > 0; i-- { // recorded in reverse start order
		info := binding.OpInfo{ID: binding.OpID(i), Client: "c", Name: "get", Key: "k", Start: ms(i)}
		rec.OpStart(info)
		for j := 0; j < i%4; j++ { // zero to three views
			rec.OpView(info, binding.OpView{Level: core.LevelWeak, Version: uint64(i), At: ms(i)})
		}
		rec.OpEnd(info, ms(i+1), nil)
	}
	ops := rec.Ops()
	if len(ops) != n || rec.Len() != n {
		t.Fatalf("Ops() = %d ops, Len() = %d, want %d", len(ops), rec.Len(), n)
	}
	for i := range ops {
		op := &ops[i]
		if op.ID != uint64(i+1) || len(op.Views) != (i+1)%4 {
			t.Fatalf("op %d: %s", i, op)
		}
		for _, v := range op.Views {
			if v.Version != op.ID {
				t.Fatalf("op %d holds another op's view: %s", i, op)
			}
		}
	}
}

// TestRecorderConcurrentSnapshots: clients record from goroutines of their
// own while snapshots are taken and read; a snapshot shares view arrays
// with ops that go on receiving views, which the race detector checks.
func TestRecorderConcurrentSnapshots(t *testing.T) {
	rec := NewRecorder()
	const clients, perClient = 4, 500
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perClient; i++ {
				info := binding.OpInfo{ID: binding.OpID(i), Client: fmt.Sprint("c", c), Name: "get", Key: "k", Start: ms(i)}
				rec.OpStart(info)
				for v := 0; v < i%4; v++ {
					rec.OpView(info, binding.OpView{Level: core.LevelWeak, Version: uint64(v), At: ms(i)})
				}
				rec.OpEnd(info, ms(i+1), nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for snapping := true; snapping; {
		select {
		case <-done:
			snapping = false
		default:
		}
		snap := rec.Ops()
		before := SerializeOps(snap)
		if after := SerializeOps(snap); string(after) != string(before) {
			t.Fatal("a snapshot changed while clients kept recording")
		}
	}
	if n := len(rec.Ops()); n != clients*perClient {
		t.Fatalf("recorded %d ops, want %d", n, clients*perClient)
	}
}
