package history

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"correctables/internal/core"
)

// checkLinearizableRef is the undivided search CheckLinearizable replaced,
// kept as the differential oracle: Wing & Gong with Lowe's memoization of
// (linearized set, state) over the whole object, refusing objects of more
// than limit ops (512 before the segmented search; 0 = no limit).
func checkLinearizableRef(m Model, ops []LinOp, budget, limit int) LinResult {
	if budget <= 0 {
		budget = defaultBudget
	}
	n := len(ops)
	if n == 0 {
		return LinResult{Ok: true}
	}
	if limit > 0 && n > limit {
		return LinResult{Inconclusive: true}
	}
	slices.SortStableFunc(ops, func(a, b LinOp) int { return cmp.Compare(a.Call, b.Call) })

	linearized := make([]bool, n)
	words := (n + 63) / 64
	bits := make([]uint64, words)
	memo := map[string]bool{}
	visited := 0
	best := -1
	var bestFrontier []int

	memoKey := func(state string) string {
		var b strings.Builder
		b.Grow(words*8 + len(state))
		for _, w := range bits {
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(w >> (8 * i))
			}
			b.Write(buf[:])
		}
		b.WriteString(state)
		return b.String()
	}

	var search func(state string, done int) bool
	search = func(state string, done int) bool {
		if done == n {
			return true
		}
		if visited++; visited > budget {
			return false
		}
		key := memoKey(state)
		if memo[key] {
			return false
		}
		memo[key] = true

		minReturn := forever
		for i := 0; i < n; i++ {
			if !linearized[i] && ops[i].Return < minReturn {
				minReturn = ops[i].Return
			}
		}
		if done > best {
			best = done
			bestFrontier = bestFrontier[:0]
			for i := 0; i < n; i++ {
				if !linearized[i] && ops[i].Call <= minReturn {
					bestFrontier = append(bestFrontier, i)
				}
			}
		}
		for i := 0; i < n; i++ {
			if linearized[i] || ops[i].Call > minReturn {
				continue
			}
			linearized[i] = true
			bits[i/64] |= 1 << (i % 64)
			if next, ok := m.Step(state, &ops[i]); ok && search(next, done+1) {
				return true
			}
			if ops[i].Optional && search(state, done+1) {
				return true
			}
			linearized[i] = false
			bits[i/64] &^= 1 << (i % 64)
		}
		return false
	}

	if search(m.Init(), 0) {
		return LinResult{Ok: true, configs: visited}
	}
	if visited > budget {
		return LinResult{Inconclusive: true, configs: visited}
	}
	res := LinResult{configs: visited}
	for _, i := range bestFrontier {
		if src := ops[i].Source; src != nil {
			res.Witness = append(res.Witness, *src)
		}
	}
	return res
}

// --- History generators ---------------------------------------------------

// randomLinHistory draws one object's history: 2–12 sequential clients on a
// coarse millisecond grid (so an op returning at the instant another is
// called is common), results computed from a sequential run at a random
// instant inside each op's interval (linearizable by construction), and
// about one mutation in twenty ambiguous — Optional, never returning, and
// applied or not. A sparse history has 2–4 clients that often pause and an
// ambiguous op about once in 600, as a long recorded one does. Every op
// carries a Source whose ID is its draw index.
func randomLinHistory(rng *rand.Rand, queue bool, n int, sparse bool) []LinOp {
	type drawn struct {
		op    LinOp
		point time.Duration
		tie   int
		skip  bool // an ambiguous mutation that never took effect
	}
	clients, ambiguousOneIn := 2+rng.Intn(11), 20
	if sparse {
		clients, ambiguousOneIn = 2+rng.Intn(3), 600
	}
	free := make([]time.Duration, clients) // when each client may call next
	for c := range free {
		free[c] = ms(rng.Intn(5))
	}
	ds := make([]drawn, n)
	for i := range ds {
		c := rng.Intn(clients)
		call := free[c] + ms(rng.Intn(3))
		if sparse && rng.Intn(3) == 0 {
			call += ms(20)
		}
		ret := call + ms(rng.Intn(6))
		d := drawn{op: LinOp{Call: call, Return: ret}, tie: rng.Int()}
		mutates := rng.Intn(2) == 0
		switch {
		case queue && mutates:
			d.op.Kind = "enqueue"
		case queue:
			d.op.Kind = "dequeue"
		case mutates:
			d.op.Kind = "put"
		default:
			d.op.Kind = "get"
		}
		d.point = call + time.Duration(rng.Int63n(int64(ret-call)+1))
		if (mutates || queue) && rng.Intn(ambiguousOneIn) == 0 {
			// Timed out at ret: the client moves on, the op may still apply.
			d.op.Optional, d.op.Return = true, forever
			d.point = call + ms(rng.Intn(12))
			d.skip = rng.Intn(2) == 0
			if !mutates {
				d.op.Elem = anyElem
			}
		}
		free[c] = ret
		ds[i] = d
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(ds[a].point, ds[b].point); c != 0 {
			return c
		}
		return cmp.Compare(ds[a].tie, ds[b].tie)
	})
	var reg uint64
	var fifo []string
	for tok, i := range order {
		op := &ds[i].op
		switch op.Kind {
		case "put":
			op.Version = uint64(tok + 1)
			if !ds[i].skip {
				reg = op.Version
			}
		case "get":
			op.Version = reg
		case "enqueue":
			op.Elem = fmt.Sprintf("e%d", tok)
			if !ds[i].skip {
				fifo = append(fifo, op.Elem)
			}
		case "dequeue":
			if op.Elem == anyElem {
				if !ds[i].skip && len(fifo) > 0 {
					fifo = fifo[1:]
				}
			} else if len(fifo) > 0 {
				op.Elem, fifo = fifo[0], fifo[1:]
			}
		}
	}
	out := make([]LinOp, n)
	for i := range ds {
		out[i] = ds[i].op
		out[i].Source = &Op{ID: uint64(i), Name: out[i].Kind, Key: "x"}
	}
	return out
}

// mutateLinHistory returns a copy of ops with one result or interval
// changed: usually a non-linearizable history, not always.
func mutateLinHistory(rng *rand.Rand, ops []LinOp) []LinOp {
	out := slices.Clone(ops)
	i, j := rng.Intn(len(out)), rng.Intn(len(out))
	switch rng.Intn(3) {
	case 0: // swap two results
		out[i].Version, out[j].Version = out[j].Version, out[i].Version
		if out[i].Elem != anyElem && out[j].Elem != anyElem {
			out[i].Elem, out[j].Elem = out[j].Elem, out[i].Elem
		}
	case 1: // a read of the initial state, or a dequeue observing empty
		if out[i].Kind == "get" {
			out[i].Version = 0
		} else if out[i].Kind == "dequeue" && out[i].Elem != anyElem {
			out[i].Elem = ""
		}
	default: // an op that returned at its call
		if !out[i].Optional {
			out[i].Return = out[i].Call
		}
	}
	return out
}

// producerConsumer records n ops on one queue: a producer enqueues and a
// consumer dequeues every 90 ms, each a sequential client whose ops take
// 5–120 ms and start late when the previous one overran; every op takes
// effect at a random instant inside its interval. The result is sorted as
// Recorder.Ops sorts it.
func producerConsumer(queue string, n int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	type drawn struct {
		op    Op
		point time.Duration
	}
	var ds []drawn
	for role, client := range []string{queue + "-prod", queue + "-cons"} {
		end := time.Duration(0)
		for i := 0; i < (n+1-role)/2; i++ {
			start := max(ms(90*i+45*role), end)
			end = start + ms(5+rng.Intn(116))
			name := "enqueue"
			if role == 1 {
				name = "dequeue"
			}
			ds = append(ds, drawn{
				op: Op{
					ID: uint64(i + 1), Client: client, Name: name, Key: queue, Mutating: true,
					Start: start, End: end, Done: true,
				},
				point: start + time.Duration(rng.Int63n(int64(end-start)+1)),
			})
		}
	}
	slices.SortStableFunc(ds, func(a, b drawn) int { return cmp.Compare(a.point, b.point) })
	var fifo []string
	for i := range ds {
		op := &ds[i].op
		note := ""
		if op.Name == "enqueue" {
			note = fmt.Sprintf("%s-%010d", queue, op.ID)
			fifo = append(fifo, note)
		} else if len(fifo) > 0 {
			note, fifo = fifo[0], fifo[1:]
		}
		op.Views = []View{{Level: core.LevelStrong, Final: true, At: op.End, Note: note}}
	}
	out := make([]Op, len(ds))
	for i := range ds {
		out[i] = ds[i].op
	}
	slices.SortStableFunc(out, func(a, b Op) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Client, b.Client)
	})
	return out
}

// --- Differential oracle --------------------------------------------------

// segmentIndex maps each position of a call-sorted history to its segment:
// a new one starts where every earlier op returned strictly before the
// call.
func segmentIndex(sorted []LinOp) []int {
	seg := make([]int, len(sorted))
	maxReturn := time.Duration(-1)
	for i := range sorted {
		if i > 0 {
			seg[i] = seg[i-1]
			if maxReturn < sorted[i].Call {
				seg[i]++
			}
		}
		maxReturn = max(maxReturn, sorted[i].Return)
	}
	return seg
}

// Outcomes of compareWithRef.
const (
	linearizable = iota
	notLinearizable
	undecided // the reference ran out of budget
)

// compareWithRef checks one history both ways and fails on any
// disagreement: identical verdicts and witnesses wherever the reference
// decides, no more configurations visited than the reference, and a witness
// inside one segment. Where the reference refuses the object for its size,
// the segmented search must refuse it too if a segment is wider than
// maxSegment, and must otherwise match the reference run without the size
// limit wherever that decides. Both searches get the same budget.
func compareWithRef(t *testing.T, name string, m Model, ops []LinOp, budget int) int {
	t.Helper()
	got := CheckLinearizable(m, slices.Clone(ops), budget)
	ref := checkLinearizableRef(m, slices.Clone(ops), budget, maxSegment)
	sorted := slices.Clone(ops)
	slices.SortStableFunc(sorted, func(a, b LinOp) int { return cmp.Compare(a.Call, b.Call) })
	seg := segmentIndex(sorted)
	if ref.Inconclusive && ref.configs == 0 {
		widest := 0
		for i, first := 0, 0; i <= len(seg); i++ {
			if i == len(seg) || seg[i] != seg[first] {
				widest, first = max(widest, i-first), i
			}
		}
		if widest > maxSegment {
			if !got.Inconclusive {
				t.Fatalf("%s: a %d-op segment decided: %+v", name, widest, got)
			}
			return undecided
		}
		ref = checkLinearizableRef(m, slices.Clone(ops), budget, 0)
	}
	if ref.Inconclusive {
		return undecided
	}
	if got.Ok != ref.Ok || got.Inconclusive {
		t.Fatalf("%s: verdict %+v, reference %+v", name, got, ref)
	}
	if got.configs > ref.configs {
		t.Fatalf("%s: %d configurations visited, the reference %d", name, got.configs, ref.configs)
	}
	if !slices.EqualFunc(got.Witness, ref.Witness, func(a, b Op) bool { return a.ID == b.ID }) {
		t.Fatalf("%s: witness %v, reference %v", name, got.Witness, ref.Witness)
	}
	if got.Ok {
		return linearizable
	}
	segOf := map[uint64]int{}
	for i := range sorted {
		segOf[sorted[i].Source.ID] = seg[i]
	}
	for _, w := range got.Witness {
		if segOf[w.ID] != segOf[got.Witness[0].ID] {
			t.Fatalf("%s: witness spans segments: %v", name, got.Witness)
		}
	}
	return notLinearizable
}

// TestSegmentedSearchMatchesReference drives the segmented search and the
// undivided reference through seeded random register and queue histories,
// each also in a mutated copy. The budget is the default's four-hundredth,
// which keeps the dense many-client queue histories that defeat both
// searches cheap.
func TestSegmentedSearchMatchesReference(t *testing.T) {
	const histories, budget = 2400, defaultBudget / 400
	rng := rand.New(rand.NewSource(27))
	models := [2]Model{RegisterModel{}, QueueModel{}}
	var counts, large [3]int
	for h := 0; h < histories; h++ {
		queue := h%2 == 1
		n, sparse := 2+rng.Intn(40), h%97 == 0
		if sparse {
			n = maxSegment + 1 + rng.Intn(400)
		}
		ops := randomLinHistory(rng, queue, n, sparse)
		name := fmt.Sprintf("history %d (queue=%v, %d ops)", h, queue, n)
		outcome := compareWithRef(t, name, models[h%2], ops, budget)
		if outcome == notLinearizable {
			t.Fatalf("%s: linearizable by construction, rejected", name)
		}
		if sparse {
			large[outcome]++
		}
		counts[compareWithRef(t, name+" mutated", models[h%2], mutateLinHistory(rng, ops), budget)]++
	}
	t.Logf("mutated copies of %d histories: %d linearizable, %d not, %d undecided; of %d over %d ops, %d decided",
		histories, counts[linearizable], counts[notLinearizable], counts[undecided],
		large[linearizable]+large[undecided], maxSegment, large[linearizable])
	if counts[notLinearizable] < histories/4 || large[linearizable] < 2*large[undecided] {
		t.Fatal("weak sample")
	}
}

// TestLinearizableTieIsNotCut: an op called at the instant another returns
// may be linearized before it, so no segment boundary falls there.
func TestLinearizableTieIsNotCut(t *testing.T) {
	ops := []LinOp{linPut(1, ms(0), ms(10)), linGet(0, ms(10), ms(20))}
	if res := CheckLinearizable(RegisterModel{}, ops, 0); !res.Ok {
		t.Fatalf("get of the initial state at the put's return rejected: %+v", res)
	}
	ops = []LinOp{linPut(1, ms(0), ms(10)), linGet(0, ms(11), ms(20))}
	if res := CheckLinearizable(RegisterModel{}, ops, 0); res.Ok || res.Inconclusive {
		t.Fatalf("get of the initial state after the put returned accepted: %+v", res)
	}
}

// TestLinearizableDecidesLongQueue: a 5000-op two-client queue history,
// which the undivided search refused, is decided — and an element dequeued
// a second time late in it is found, with a witness in one segment.
func TestLinearizableDecidesLongQueue(t *testing.T) {
	lin, vs := QueueHistory(producerConsumer("q", 5000, 1), "q")
	if len(vs) != 0 || len(lin) != 5000 {
		t.Fatalf("history: %d ops, phantoms %v", len(lin), vs)
	}
	if res := checkLinearizableRef(QueueModel{}, slices.Clone(lin), 0, maxSegment); !res.Inconclusive {
		t.Fatalf("reference decided a 5000-op object: %+v", res)
	}
	if compareWithRef(t, "producer/consumer", QueueModel{}, lin, 0) != linearizable {
		t.Fatal("linearizable 5000-op queue not accepted")
	}

	bad := slices.Clone(lin)
	var dequeued []int
	for i := range bad {
		if bad[i].Kind == "dequeue" && bad[i].Elem != "" {
			dequeued = append(dequeued, i)
		}
	}
	bad[dequeued[len(dequeued)-10]].Elem = bad[dequeued[len(dequeued)/2]].Elem
	if compareWithRef(t, "producer/consumer, one element dequeued twice", QueueModel{}, bad, 0) != notLinearizable {
		t.Fatal("duplicate dequeue not reported as a violation")
	}
}

// TestLinearizableAmbiguousStartStaysInconclusive: an ambiguous op never
// returns, so no cut falls after it; one at the start of a long history
// leaves a single segment over maxSegment ops, which is not searched.
func TestLinearizableAmbiguousStartStaysInconclusive(t *testing.T) {
	ops := []LinOp{{Kind: "put", Version: 9999, Call: 0, Return: forever, Optional: true}}
	for i := 0; i < maxSegment; i++ {
		ops = append(ops, linPut(uint64(i+1), ms(10*i+1), ms(10*i+5)))
	}
	if res := CheckLinearizable(RegisterModel{}, ops, 0); !res.Inconclusive {
		t.Fatalf("%d-op segment behind an ambiguous op decided: %+v", len(ops), res)
	}
	// Without the ambiguous op every put is its own segment.
	if res := CheckLinearizable(RegisterModel{}, ops[1:], 0); !res.Ok {
		t.Fatalf("%d sequential puts not accepted: %+v", len(ops)-1, res)
	}
}

// TestCountGateSegmentedSearch pins how many configurations the segmented
// search visits on the 5000-op producer/consumer history. The count is
// deterministic; it must stay at most 2n (one-op segments cost none).
func TestCountGateSegmentedSearch(t *testing.T) {
	const n, want = 5000, 4625
	lin, _ := QueueHistory(producerConsumer("q", n, 1), "q")
	res := CheckLinearizable(QueueModel{}, lin, 0)
	if !res.Ok {
		t.Fatalf("history not accepted: %+v", res)
	}
	if res.configs != want || res.configs > 2*n {
		t.Fatalf("visited %d configurations, pinned %d (at most %d)", res.configs, want, 2*n)
	}
}
