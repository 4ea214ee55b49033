package history

import (
	"context"
	"strings"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// mkOp builds a completed op with a single final view.
func mkOp(client, name, key string, mutating bool, start, end time.Duration, version uint64) Op {
	return Op{
		Client: client, Name: name, Key: key, Mutating: mutating,
		Start: start, End: end, Done: true,
		Views: []View{{Level: core.LevelStrong, Final: true, Version: version, At: end}},
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// The three session checkers one at a time, each over its own grouping;
// production code runs them together (CheckSessionGuarantees).
func CheckRYW(ops []Op) []Violation               { return checkRYW(sessionGroups(ops)) }
func CheckMonotonicReads(ops []Op) []Violation    { return checkMonotonicReads(sessionGroups(ops)) }
func CheckWritesFollowReads(ops []Op) []Violation { return checkWritesFollowReads(sessionGroups(ops)) }

func TestCheckRYWDetectsStaleRead(t *testing.T) {
	ops := []Op{
		mkOp("alice", "put", "k", true, ms(0), ms(10), 5),
		mkOp("alice", "get", "k", false, ms(20), ms(30), 4), // stale!
	}
	vs := CheckRYW(ops)
	if len(vs) != 1 || vs[0].Guarantee != "read-your-writes" || len(vs[0].Witness) != 2 {
		t.Fatalf("violations = %+v", vs)
	}
	// A concurrent (overlapping) read constrains nothing.
	ops[1].Start = ms(5)
	if vs := CheckRYW(ops); len(vs) != 0 {
		t.Fatalf("overlapping read flagged: %+v", vs)
	}
	// Another client's stale read is not alice's RYW problem.
	ops[1] = mkOp("bob", "get", "k", false, ms(20), ms(30), 4)
	if vs := CheckRYW(ops); len(vs) != 0 {
		t.Fatalf("cross-client read flagged: %+v", vs)
	}
}

func TestCheckRYWChecksPreliminaryViews(t *testing.T) {
	read := Op{
		Client: "alice", Name: "get", Key: "k", Start: ms(20), End: ms(40), Done: true,
		Views: []View{
			{Level: core.LevelWeak, Version: 3, At: ms(25)}, // stale prelim
			{Level: core.LevelStrong, Final: true, Version: 5, At: ms(40)},
		},
	}
	ops := []Op{mkOp("alice", "put", "k", true, ms(0), ms(10), 5), read}
	vs := CheckRYW(ops)
	if len(vs) != 1 {
		t.Fatalf("stale preliminary not flagged: %+v", vs)
	}
}

func TestCheckMonotonicReads(t *testing.T) {
	ops := []Op{
		mkOp("alice", "get", "k", false, ms(0), ms(10), 7),
		mkOp("alice", "get", "k", false, ms(20), ms(30), 6), // regressed
	}
	vs := CheckMonotonicReads(ops)
	if len(vs) != 1 || vs[0].Guarantee != "monotonic-reads" {
		t.Fatalf("violations = %+v", vs)
	}
	ops[1].Views[0].Version = 7
	if vs := CheckMonotonicReads(ops); len(vs) != 0 {
		t.Fatalf("same-version read flagged: %+v", vs)
	}
}

func TestCheckWritesFollowReads(t *testing.T) {
	ops := []Op{
		mkOp("alice", "get", "k", false, ms(0), ms(10), 9),
		mkOp("alice", "put", "k", true, ms(20), ms(30), 4), // ordered before what was read
	}
	vs := CheckWritesFollowReads(ops)
	if len(vs) != 1 || vs[0].Guarantee != "writes-follow-reads" {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestSessionCheckersCleanHistory(t *testing.T) {
	ops := []Op{
		mkOp("alice", "put", "k", true, ms(0), ms(10), 1),
		mkOp("alice", "get", "k", false, ms(20), ms(30), 1),
		mkOp("bob", "put", "k", true, ms(15), ms(25), 2),
		mkOp("alice", "get", "k", false, ms(40), ms(50), 2),
		mkOp("bob", "get", "k", false, ms(40), ms(50), 2),
	}
	if vs := CheckSessionGuarantees(ops); len(vs) != 0 {
		t.Fatalf("clean history flagged: %+v", vs)
	}
}

// --- Linearizability ------------------------------------------------------

func linPut(v uint64, call, ret time.Duration) LinOp {
	return LinOp{Kind: "put", Version: v, Call: call, Return: ret}
}
func linGet(v uint64, call, ret time.Duration) LinOp {
	return LinOp{Kind: "get", Version: v, Call: call, Return: ret}
}

func TestRegisterLinearizable(t *testing.T) {
	// Two concurrent puts, reads that agree on one order.
	ops := []LinOp{
		linPut(1, ms(0), ms(20)),
		linPut(2, ms(10), ms(30)),
		linGet(1, ms(35), ms(40)),
		linPut(3, ms(45), ms(50)),
		linGet(3, ms(55), ms(60)),
	}
	// put2 then put1 (concurrent, either order legal), get 1, put 3, get 3.
	if res := CheckLinearizable(RegisterModel{}, ops, 0); !res.Ok {
		t.Fatalf("linearizable history rejected: %+v", res)
	}
}

func TestRegisterNotLinearizable(t *testing.T) {
	// get(2) strictly after put(3) completed, with no later write of 2.
	ops := []LinOp{
		linPut(2, ms(0), ms(10)),
		linPut(3, ms(20), ms(30)),
		linGet(2, ms(40), ms(50)),
	}
	res := CheckLinearizable(RegisterModel{}, ops, 0)
	if res.Ok || res.Inconclusive {
		t.Fatalf("stale read accepted: %+v", res)
	}
}

func TestRegisterAmbiguousWriteMayApply(t *testing.T) {
	// A timed-out put(2) explains a later read of 2.
	ops := []LinOp{
		linPut(1, ms(0), ms(10)),
		{Kind: "put", Version: 2, Call: ms(20), Return: forever, Optional: true},
		linGet(2, ms(40), ms(50)),
	}
	if res := CheckLinearizable(RegisterModel{}, ops, 0); !res.Ok {
		t.Fatalf("ambiguous write not credited: %+v", res)
	}
	// ...and may equally never apply.
	ops = []LinOp{
		linPut(1, ms(0), ms(10)),
		{Kind: "put", Version: 2, Call: ms(20), Return: forever, Optional: true},
		linGet(1, ms(40), ms(50)),
	}
	if res := CheckLinearizable(RegisterModel{}, ops, 0); !res.Ok {
		t.Fatalf("omittable ambiguous write not omitted: %+v", res)
	}
}

func TestQueueLinearizable(t *testing.T) {
	ops := []LinOp{
		{Kind: "enqueue", Elem: "a", Call: ms(0), Return: ms(10)},
		{Kind: "enqueue", Elem: "b", Call: ms(20), Return: ms(30)},
		{Kind: "dequeue", Elem: "a", Call: ms(40), Return: ms(50)},
		{Kind: "dequeue", Elem: "b", Call: ms(60), Return: ms(70)},
		{Kind: "dequeue", Elem: "", Call: ms(80), Return: ms(90)},
	}
	if res := CheckLinearizable(QueueModel{}, ops, 0); !res.Ok {
		t.Fatalf("FIFO history rejected: %+v", res)
	}
}

func TestQueueNotLinearizable(t *testing.T) {
	// b dequeued before a although a was enqueued strictly first.
	ops := []LinOp{
		{Kind: "enqueue", Elem: "a", Call: ms(0), Return: ms(10)},
		{Kind: "enqueue", Elem: "b", Call: ms(20), Return: ms(30)},
		{Kind: "dequeue", Elem: "b", Call: ms(40), Return: ms(50)},
		{Kind: "dequeue", Elem: "a", Call: ms(60), Return: ms(70)},
	}
	res := CheckLinearizable(QueueModel{}, ops, 0)
	if res.Ok || res.Inconclusive {
		t.Fatalf("reordered dequeues accepted: %+v", res)
	}
}

// --- End to end through the invoke pipeline -------------------------------

// brokenBinding is the mutation-test binding: a versioned register store
// whose final reads are served from a replica frozen at an old version —
// exactly the regression the checkers must catch. mode "stale-final" serves
// stale strong reads; mode "honest" behaves. It answers synchronously on
// its clock's current instant.
type brokenBinding struct {
	mode    string
	clock   netsim.Clock
	version uint64
	frozen  uint64 // the stale replica's version
}

func (b *brokenBinding) ConsistencyLevels() core.Levels {
	return core.Levels{core.LevelWeak, core.LevelStrong}
}
func (b *brokenBinding) Scheduler() core.Scheduler { return binding.SchedulerFor(b.clock) }

func (b *brokenBinding) SubmitOperation(ctx context.Context, op binding.Operation, levels core.Levels, cb binding.Callback) {
	switch op.(type) {
	case binding.Put:
		b.version++
		if b.frozen == 0 {
			b.frozen = b.version // replica froze after the first write
		}
		cb(binding.Result{Level: levels.Strongest(), Version: b.version})
	case binding.Get:
		v := b.version
		if b.mode == "stale-final" {
			v = b.frozen
		}
		cb(binding.Result{Level: levels.Strongest(), Version: v})
	}
}

// TestMutationBrokenBindingDetected is the acceptance mutation test: a
// seeded, deliberately broken binding must be flagged by the checkers,
// while the honest variant stays clean.
func TestMutationBrokenBindingDetected(t *testing.T) {
	run := func(mode string) []Op {
		rec := NewRecorder()
		clock := netsim.NewVirtualClock()
		c := binding.NewClient(&brokenBinding{mode: mode, clock: clock},
			binding.WithObserver(rec), binding.WithLabel("alice"))
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			// A millisecond between operations orders them in real time.
			clock.Sleep(time.Millisecond)
			if _, err := binding.InvokeStrong[binding.Ack](ctx, c, binding.Put{Key: "k", Value: []byte("v")}).Final(ctx); err != nil {
				t.Fatal(err)
			}
			clock.Sleep(time.Millisecond)
			if _, err := binding.InvokeStrong[[]byte](ctx, c, binding.Get{Key: "k"}).Final(ctx); err != nil {
				t.Fatal(err)
			}
		}
		clock.Drain()
		return rec.Ops()
	}

	broken := run("stale-final")
	vs := CheckSessionGuarantees(broken)
	if len(vs) == 0 {
		t.Fatal("broken binding not flagged by session checkers")
	}
	if !strings.Contains(vs[0].String(), "read-your-writes") {
		t.Errorf("first violation = %s", vs[0])
	}
	linVs, inconclusive := CheckRegisters(broken, 0)
	if len(linVs) == 0 || len(inconclusive) != 0 {
		t.Fatalf("broken binding not flagged by linearizability checker: %+v (inconclusive %v)", linVs, inconclusive)
	}

	honest := run("honest")
	if vs := CheckSessionGuarantees(honest); len(vs) != 0 {
		t.Fatalf("honest binding flagged: %+v", vs)
	}
	if linVs, _ := CheckRegisters(honest, 0); len(linVs) != 0 {
		t.Fatalf("honest binding flagged by linearizability: %+v", linVs)
	}
}

func TestRecorderSerializeDeterministic(t *testing.T) {
	build := func() []byte {
		rec := NewRecorder()
		info := binding.OpInfo{ID: 1, Client: "c", Name: "get", Key: "k", Start: ms(1)}
		rec.OpStart(info)
		rec.OpView(info, binding.OpView{Level: core.LevelWeak, Version: 3, At: ms(2), Value: []byte("x")})
		rec.OpView(info, binding.OpView{Level: core.LevelStrong, Final: true, Version: 4, At: ms(3), Value: []byte("y")})
		rec.OpEnd(info, ms(3), nil)
		return SerializeOps(rec.Ops())
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatalf("serialization not deterministic:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), "c#1 get(k)") {
		t.Errorf("serialized form = %s", a)
	}
}

// TestRecorderLabelCollisionFailsLoudly: two clients sharing a label (the
// default empty one) must not silently merge event streams — the evicted
// record is closed with an explicit error and Collisions() reports it.
func TestRecorderLabelCollisionFailsLoudly(t *testing.T) {
	rec := NewRecorder()
	info := binding.OpInfo{ID: 1, Name: "get", Key: "k", Start: ms(1)}
	rec.OpStart(info) // client A, op #1
	rec.OpStart(info) // client B, same default label, same per-client ID
	if got := rec.Collisions(); got != 1 {
		t.Fatalf("Collisions = %d, want 1", got)
	}
	ops := rec.Ops()
	if len(ops) != 2 {
		t.Fatalf("ops = %d, want both records kept", len(ops))
	}
	if !ops[0].Done || !strings.Contains(ops[0].Err, "label") {
		t.Errorf("evicted record = %+v, want an explicit label-collision error", ops[0])
	}
	// Distinct labels never collide.
	rec2 := NewRecorder()
	rec2.OpStart(binding.OpInfo{ID: 1, Client: "a"})
	rec2.OpStart(binding.OpInfo{ID: 1, Client: "b"})
	if got := rec2.Collisions(); got != 0 {
		t.Errorf("distinct labels reported %d collisions", got)
	}
}

func TestQueueHistoryPhantoms(t *testing.T) {
	enq := mkOp("a", "enqueue", "q", true, ms(0), ms(10), 1)
	enq.Views[0].Note = "q-0000000001"
	deqUnknown := mkOp("b", "dequeue", "q", true, ms(20), ms(30), 2)
	deqUnknown.Views[0].Note = "q-0000000002"
	// Without an ambiguous enqueue to blame: a phantom violation.
	_, vs := QueueHistory([]Op{enq, deqUnknown}, "q")
	if len(vs) != 1 {
		t.Fatalf("phantom dequeue not flagged: %+v", vs)
	}
	// With one: attributed, no violation, and the history linearizes.
	ambiguousEnq := Op{Client: "c", Name: "enqueue", Key: "q", Mutating: true,
		Start: ms(5), Done: true, Err: "unreachable"}
	deqKnown := mkOp("b", "dequeue", "q", true, ms(40), ms(50), 3)
	deqKnown.Views[0].Note = "q-0000000001"
	lin, vs := QueueHistory([]Op{enq, ambiguousEnq, deqUnknown, deqKnown}, "q")
	if len(vs) != 0 {
		t.Fatalf("attributable phantom flagged: %+v", vs)
	}
	if res := CheckLinearizable(QueueModel{}, lin, 0); !res.Ok {
		t.Fatalf("attributed history rejected: %+v", res)
	}
}

// TestQueueAmbiguousDequeueMayApply: a dequeue that timed out may still
// have taken effect server-side (its forward delivered after the heal), so
// the checker must allow it to explain a vanished head element — while a
// history with the same gap and no ambiguous dequeue stays a violation.
func TestQueueAmbiguousDequeueMayApply(t *testing.T) {
	enqA := mkOp("a", "enqueue", "q", true, ms(0), ms(10), 1)
	enqA.Views[0].Note = "q-0000000001"
	enqB := mkOp("a", "enqueue", "q", true, ms(20), ms(30), 2)
	enqB.Views[0].Note = "q-0000000002"
	// The head vanished: only b is ever dequeued.
	deqB := mkOp("b", "dequeue", "q", true, ms(60), ms(70), 3)
	deqB.Views[0].Note = "q-0000000002"

	lin, vs := QueueHistory([]Op{enqA, enqB, deqB}, "q")
	if len(vs) != 0 {
		t.Fatalf("spurious phantoms: %+v", vs)
	}
	if res := CheckLinearizable(QueueModel{}, lin, 0); res.Ok || res.Inconclusive {
		t.Fatalf("vanished head accepted without an ambiguous dequeue: %+v", res)
	}

	// A timed-out dequeue covering the gap makes the history linearizable.
	ambiguousDeq := Op{Client: "c", Name: "dequeue", Key: "q", Mutating: true,
		Start: ms(40), Done: true, Err: "unreachable"}
	lin, vs = QueueHistory([]Op{enqA, enqB, ambiguousDeq, deqB}, "q")
	if len(vs) != 0 {
		t.Fatalf("spurious phantoms: %+v", vs)
	}
	if res := CheckLinearizable(QueueModel{}, lin, 0); !res.Ok {
		t.Fatalf("ambiguous dequeue not applied: %+v", res)
	}
}
