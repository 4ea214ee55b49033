package zk

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Default election parameters (ElectionTimeout 2s base + quarter-base
// stagger, HeartbeatInterval 250ms) with the newFaultedEnsemble regions:
// FRK (leader) times out after 2s, IRL after 2.5s, VRG after 3s.

// TestLeaderCrashElectsMajority is the tentpole semantic: a crashed leader
// no longer wedges finals until its restart — the majority side elects a
// new leader within the election timeout and ordered commits resume while
// the old leader is still down; on restart the old leader rejoins as a
// follower and is resynced by state transfer.
func TestLeaderCrashElectsMajority(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Crash{Region: netsim.FRK})
	clock.Sleep(3500 * time.Millisecond) // IRL times out at ~2.5s and wins with VRG's vote

	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.IRL || recs[0].Epoch != 1 {
		t.Fatalf("elections = %+v, want one epoch-1 win by %s", recs, netsim.IRL)
	}
	if got := e.Leader().Region; got != netsim.IRL {
		t.Fatalf("leader = %s after election, want %s", got, netsim.IRL)
	}
	// Finals resume with the old leader still down.
	if err := qc.Enqueue("q", []byte("x"), false, func(QueueView) {}); err != nil {
		t.Fatalf("enqueue under new leader with old leader down: %v", err)
	}

	inj.Apply(faults.Restart{Region: netsim.FRK})
	clock.Sleep(time.Second) // snapshot resync + a heartbeat to step down
	if got := e.Server(netsim.FRK).Role(); got != "follower" {
		t.Errorf("restarted old leader role = %s, want follower", got)
	}
	if got, want := e.Server(netsim.FRK).Tree().NodeCount(), e.Leader().Tree().NodeCount(); got != want {
		t.Errorf("old leader has %d znodes after resync, leader %d", got, want)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestElectionStalledByCrashedElectorate: a candidacy in flight while the
// rest of the ensemble is crashed cannot reach a majority — the candidate
// retries in the *same* epoch (an isolated candidate must not inflate
// epochs) until a quorum peer restarts, then wins promptly. Terminal state:
// elected leader, working ops, converged trees — never a wedge.
func TestElectionStalledByCrashedElectorate(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Crash{Region: netsim.FRK})
	inj.Apply(faults.Crash{Region: netsim.VRG})
	clock.Sleep(9 * time.Second) // several IRL candidacies, all short of quorum
	if recs := e.Elections(); len(recs) != 0 {
		t.Fatalf("election won without a quorum alive: %+v", recs)
	}
	if got := e.Server(netsim.IRL).Role(); got != "candidate" {
		t.Errorf("sole live server role = %s, want candidate", got)
	}

	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(6 * time.Second) // next retry (plus one step-down round at worst) wins
	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.IRL {
		t.Fatalf("elections = %+v, want one win by %s", recs, netsim.IRL)
	}
	if recs[0].Epoch > 2 {
		t.Errorf("win epoch = %d; isolated retries inflated the epoch", recs[0].Epoch)
	}
	if err := qc.Enqueue("q", []byte("x"), false, func(QueueView) {}); err != nil {
		t.Fatalf("enqueue after recovery: %v", err)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestDoubleLeaderCrash: the elected leader crashes too. The remaining
// majority (the restarted original leader plus the untouched follower)
// elects again — epochs strictly increase, the twice-moved leadership
// settles, and the twice-crashed servers rejoin as followers.
func TestDoubleLeaderCrash(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.VRG, netsim.VRG)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Crash{Region: netsim.FRK})
	clock.Sleep(3500 * time.Millisecond) // IRL wins epoch 1
	inj.Apply(faults.Restart{Region: netsim.FRK})
	clock.Sleep(time.Second) // FRK resyncs, steps down

	inj.Apply(faults.Crash{Region: netsim.IRL})
	clock.Sleep(3 * time.Second) // FRK times out first (2s) and wins epoch 2
	recs := e.Elections()
	if len(recs) != 2 {
		t.Fatalf("elections = %+v, want two", recs)
	}
	if recs[1].Leader != netsim.FRK || recs[1].Epoch <= recs[0].Epoch {
		t.Fatalf("second election = %+v, want %s at a higher epoch than %+v", recs[1], netsim.FRK, recs[0])
	}
	if err := qc.Enqueue("q", []byte("x"), false, func(QueueView) {}); err != nil {
		t.Fatalf("enqueue under second elected leader: %v", err)
	}

	inj.Apply(faults.Restart{Region: netsim.IRL})
	clock.Sleep(time.Second)
	if got := e.Server(netsim.IRL).Role(); got != "follower" {
		t.Errorf("twice-deposed leader role = %s, want follower", got)
	}
	if got, want := e.Server(netsim.IRL).Tree().NodeCount(), e.Leader().Tree().NodeCount(); got != want {
		t.Errorf("rejoined server has %d znodes, leader %d", got, want)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestHealBeforeElectionTimeout: a partition that isolates the leader but
// heals inside the election timeout must not trigger an election — the
// followers' heartbeat lease resumes before anyone times out.
func TestHealBeforeElectionTimeout(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Partition{Groups: [][]netsim.Region{
		{netsim.FRK}, {netsim.IRL, netsim.VRG},
	}})
	clock.Sleep(1500 * time.Millisecond) // under FRK's 2s base timeout
	inj.Apply(faults.Heal{})
	clock.Sleep(3 * time.Second) // past every timeout: leases must have resumed

	if recs := e.Elections(); len(recs) != 0 {
		t.Fatalf("heal inside the timeout still triggered elections: %+v", recs)
	}
	if got := e.Leader().Region; got != netsim.FRK {
		t.Fatalf("leader moved to %s despite the heal", got)
	}
	if err := qc.Enqueue("q", []byte("x"), false, func(QueueView) {}); err != nil {
		t.Fatalf("enqueue after heal: %v", err)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestCandidateCrashAfterVoting: an isolated follower becomes a candidate
// (voting for itself), crashes mid-candidacy, and restarts after the heal.
// The healthy majority never lost its leader, so the rejoining candidate is
// lease-denied, stands down, and the ensemble ends with its original
// leader, no elections, and converged state — the restart-bug shape that
// must never wedge.
func TestCandidateCrashAfterVoting(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Partition{Groups: [][]netsim.Region{
		{netsim.IRL}, {netsim.FRK, netsim.VRG},
	}})
	clock.Sleep(3500 * time.Millisecond) // IRL times out at ~2.5s, candidacies in isolation
	if got := e.Server(netsim.IRL).Role(); got != "candidate" {
		t.Fatalf("isolated follower role = %s, want candidate", got)
	}
	inj.Apply(faults.Crash{Region: netsim.IRL}) // candidate crashes after self-voting
	inj.Apply(faults.Heal{})
	// Commits keep flowing on the majority side throughout.
	if err := qc.Enqueue("q", []byte("x"), false, func(QueueView) {}); err != nil {
		t.Fatalf("enqueue with candidate crashed: %v", err)
	}

	inj.Apply(faults.Restart{Region: netsim.IRL})
	clock.Sleep(4 * time.Second) // rejoin: solicit, get lease-denied, stand down

	if recs := e.Elections(); len(recs) != 0 {
		t.Fatalf("rejoining candidate deposed a healthy leader: %+v", recs)
	}
	if got := e.Leader().Region; got != netsim.FRK {
		t.Fatalf("leader = %s, want %s untouched", got, netsim.FRK)
	}
	if got := e.Server(netsim.IRL).Role(); got != "follower" {
		t.Errorf("rejoined candidate role = %s, want follower", got)
	}
	if got, want := e.Server(netsim.IRL).Tree().NodeCount(), e.Leader().Tree().NodeCount(); got != want {
		t.Errorf("rejoined candidate has %d znodes, leader %d", got, want)
	}
	inj.Quiesce()
	clock.Drain()
}

// newElectionEnsemble is newFaultedEnsemble over the given regions, the
// first one leading, traced. The declaration order sets the election
// timeouts: 2s, 2.5s, 3s, 3.5s, 4s.
func newElectionEnsemble(t *testing.T, regions ...netsim.Region) (*Ensemble, *faults.Injector, *netsim.VirtualClock, *trace.Tracer) {
	t.Helper()
	return newElectionEnsembleOf(t, true, regions...)
}

// newElectionEnsembleOf is newElectionEnsemble, CZK or vanilla.
func newElectionEnsembleOf(t *testing.T, correctable bool, regions ...netsim.Region) (*Ensemble, *faults.Injector, *netsim.VirtualClock, *trace.Tracer) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	inj := faults.Attach(tr, nil, 1)
	e, err := NewEnsemble(Config{
		Regions:      regions,
		LeaderRegion: regions[0],
		Transport:    tr,
		Correctable:  correctable,
		ServiceTime:  100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	trc := trace.New()
	e.SetTrace(trc)
	return e, inj, clock, trc
}

// nameOf names a server, or none.
func nameOf(s *Server) netsim.Region {
	if s == nil {
		return "none"
	}
	return s.Region
}

// roleAt sleeps until the model instant at and checks the server's role.
func roleAt(t *testing.T, e *Ensemble, clock *netsim.VirtualClock, at time.Duration, r netsim.Region, want string) {
	t.Helper()
	clock.SleepUntil(at)
	if got := e.Server(r).Role(); got != want {
		t.Fatalf("%s at %v: role %s, want %s", r, at, got, want)
	}
}

// electionSpansClosed reports whether every election span has ended by at:
// an open span would add the time after at to the category's total.
func electionSpansClosed(trc *trace.Tracer, at time.Duration) bool {
	return trc.CategoryTotals(0, at).Get(trace.CatElection) == trc.CategoryTotals(0, at+time.Hour).Get(trace.CatElection)
}

// TestCandidateStepsDownOnHeartbeat: an isolated candidate hears the
// heartbeat of the leader the rest elected in its own epoch, and follows it
// with its election span closed. Five servers, the leader crashed: IRL is cut
// off and stands for epoch 1 at 2.5s, VRG wins epoch 1 at ~3.07s on the votes
// of NCA and ORE, and the heal at 4s lets VRG's 4.07s heartbeat reach IRL
// before IRL's 5s retry.
func TestCandidateStepsDownOnHeartbeat(t *testing.T) {
	e, inj, clock, trc := newElectionEnsemble(t, netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE)
	inj.Apply(faults.Crash{Region: netsim.FRK})
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{
		{netsim.FRK, netsim.VRG, netsim.NCA, netsim.ORE}, {netsim.IRL},
	}})
	roleAt(t, e, clock, 3900*time.Millisecond, netsim.IRL, "candidate")
	inj.Apply(faults.Heal{})
	roleAt(t, e, clock, 4500*time.Millisecond, netsim.IRL, "follower")
	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.VRG || recs[0].Epoch != 1 {
		t.Fatalf("elections = %+v, want one epoch-1 win by %s", recs, netsim.VRG)
	}
	roleAt(t, e, clock, 8*time.Second, netsim.IRL, "follower")
	if !electionSpansClosed(trc, clock.Now()) {
		t.Error("an election span is still open after every candidacy ended")
	}
	inj.Quiesce()
	clock.Drain()
}

// TestCandidateStepsDownOnNewerEpochVoteRequest: a candidate that hears a
// vote request of a newer epoch follows (and grants it), closing its election
// span there rather than at some later candidacy. IRL stands for epoch 1 cut
// off from the rest; the leader crashes at 2.9s, VRG stands for epoch 1 at
// ~5.8s, after the 5.5s heal, and the two deny each other. VRG's retry at
// ~8.8s takes a new epoch — the split-vote rule — and reaches IRL at ~8.84s,
// well before VRG wins and heartbeats.
func TestCandidateStepsDownOnNewerEpochVoteRequest(t *testing.T) {
	e, inj, clock, trc := newElectionEnsemble(t, netsim.FRK, netsim.IRL, netsim.VRG)
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.VRG}, {netsim.IRL}}})
	clock.SleepUntil(2900 * time.Millisecond)
	inj.Apply(faults.Crash{Region: netsim.FRK})
	clock.SleepUntil(5500 * time.Millisecond)
	inj.Apply(faults.Heal{})
	roleAt(t, e, clock, 8800*time.Millisecond, netsim.IRL, "candidate")
	roleAt(t, e, clock, 8860*time.Millisecond, netsim.IRL, "follower")
	if got := e.Server(netsim.VRG).Role(); got != "candidate" {
		t.Fatalf("VRG at 8.86s: role %s, want candidate (IRL must step down on the vote request, not a heartbeat)", got)
	}
	clock.SleepUntil(9500 * time.Millisecond)
	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.VRG || recs[0].Epoch != 2 {
		t.Fatalf("elections = %+v, want one epoch-2 win by %s", recs, netsim.VRG)
	}
	roleAt(t, e, clock, 12*time.Second, netsim.IRL, "follower")
	if !electionSpansClosed(trc, clock.Now()) {
		t.Error("the candidate that stepped down left its election span open")
	}
	inj.Quiesce()
	clock.Drain()
}

// TestSplitVoteRetriesInNewEpoch: five candidates that each voted for
// themselves in epoch 1 deny one another, and only a retry in a new epoch
// releases the votes. Everyone is cut off from everyone and the leader is
// down, so IRL, VRG, NCA and ORE stand for epoch 1 alone; after the 4.5s heal
// IRL's 5s retry and VRG's and NCA's are all denied, and IRL's 7.5s retry,
// in epoch 2, wins.
func TestSplitVoteRetriesInNewEpoch(t *testing.T) {
	e, inj, clock, trc := newElectionEnsemble(t, netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE)
	inj.Apply(faults.Crash{Region: netsim.FRK})
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{
		{netsim.FRK}, {netsim.IRL}, {netsim.VRG}, {netsim.NCA}, {netsim.ORE},
	}})
	clock.SleepUntil(4500 * time.Millisecond)
	for _, r := range []netsim.Region{netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE} {
		if got := e.Server(r).Role(); got != "candidate" {
			t.Fatalf("%s before the heal: role %s, want candidate", r, got)
		}
	}
	inj.Apply(faults.Heal{})
	clock.SleepUntil(7400 * time.Millisecond)
	if recs := e.Elections(); len(recs) != 0 {
		t.Fatalf("elections = %+v before any retry in a new epoch", recs)
	}
	clock.SleepUntil(9 * time.Second)
	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.IRL || recs[0].Epoch < 2 {
		t.Fatalf("elections = %+v, want one win by %s in epoch 2 or later", recs, netsim.IRL)
	}
	for _, r := range []netsim.Region{netsim.VRG, netsim.NCA, netsim.ORE} {
		if got := e.Server(r).Role(); got != "follower" {
			t.Errorf("%s after the win: role %s, want follower", r, got)
		}
	}
	if !electionSpansClosed(trc, clock.Now()) {
		t.Error("an election span is still open after every candidacy ended")
	}
	inj.Quiesce()
	clock.Drain()
}

// TestStaleWinStepsDown: a candidate whose majority arrives after a higher
// epoch has won does not lead; it follows, and the election log does not
// list it. NCA stands for epoch 1 at 2.5s and ORE and VRG grant it, but a
// latency spike holds both grants for ~3.3s; IRL cannot hear NCA and is
// denied in epoch 1 at 4s. ORE, whose grant restarted its timer, stands for
// epoch 2 at ~5.51s and wins at ~5.64s on the votes of VRG and IRL. The held
// grants give NCA its majority at ~5.88s, long before ORE's vote request or
// heartbeats reach it through the spike.
func TestStaleWinStepsDown(t *testing.T) {
	e, inj, clock, trc := newElectionEnsemble(t, netsim.FRK, netsim.NCA, netsim.ORE, netsim.VRG, netsim.IRL)
	inj.Apply(faults.Crash{Region: netsim.FRK})
	inj.Apply(faults.Drop{From: netsim.IRL, To: netsim.NCA, Prob: 1})
	clock.SleepUntil(2505 * time.Millisecond) // NCA's vote requests are on their way
	// One-way ORE-NCA is 10.5ms and VRG-NCA 31ms: both grants take ~3.3s.
	inj.Apply(faults.LatencySpike{From: netsim.ORE, To: netsim.NCA, Factor: 310, Duration: 4 * time.Second})
	inj.Apply(faults.LatencySpike{From: netsim.VRG, To: netsim.NCA, Factor: 105, Duration: 4 * time.Second})
	roleAt(t, e, clock, 5700*time.Millisecond, netsim.NCA, "candidate")
	if recs := e.Elections(); len(recs) != 1 || recs[0].Leader != netsim.ORE || recs[0].Epoch != 2 {
		t.Fatalf("elections = %+v, want one epoch-2 win by %s", recs, netsim.ORE)
	}
	roleAt(t, e, clock, 6*time.Second, netsim.NCA, "follower")
	if recs := e.Elections(); len(recs) != 1 {
		t.Fatalf("elections = %+v: the stale win was installed", recs)
	}
	if got := e.Leader().Region; got != netsim.ORE {
		t.Fatalf("leader = %s, want %s", got, netsim.ORE)
	}
	if !electionSpansClosed(trc, clock.Now()) {
		t.Error("an election span is still open after the stale win")
	}
	inj.Quiesce()
	clock.Drain()
}

// TestIllegalMovePanics: a move the table does not list — a follower
// leading without a candidacy, or taking the role it holds — panics in
// become and leaves the role alone.
func TestIllegalMovePanics(t *testing.T) {
	e, _, _ := newFaultedEnsemble(t)
	for _, m := range []struct {
		r  netsim.Region
		to role
	}{{netsim.IRL, roleLeader}, {netsim.IRL, roleFollower}, {netsim.FRK, roleLeader}} {
		s := e.Server(m.r)
		from := s.Role()
		func() {
			e.elect.mu.Lock()
			defer e.elect.mu.Unlock()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %s -> %s did not panic", m.r, from, m.to)
				}
			}()
			e.elect.become(s, m.to, 0)
		}()
		if got := s.Role(); got != from {
			t.Errorf("%s: role %s after the refused move, want %s", m.r, got, from)
		}
	}
}

// TestDeposedLeaderFailsItsEnqueue is ROADMAP item 2(a), fixed: a leader cut
// off from the majority cannot commit the operation it was proposing, and
// after the heal it fails the operation instead of acknowledging it. FRK
// leads and is partitioned away at once; IRL wins epoch 1 at ~2.59s; the
// FRK-contact enqueue's round takes the refusals of IRL and VRG, which
// promised epoch 1, just after the 4s heal, and the enqueue returns
// ErrLeaderLost with no view. An enqueue through IRL then commits, and once FRK is resynced every
// server holds exactly the acknowledged element.
func TestDeposedLeaderFailsItsEnqueue(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}})
	clock.RunAt(start+4*time.Second, func() { inj.Apply(faults.Heal{}) })
	var views []QueueView
	err := qc.Enqueue("q", []byte("lost"), false, func(v QueueView) { views = append(views, v) })
	at := clock.Now() - start

	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.IRL || recs[0].Epoch != 1 || recs[0].At-start > 3*time.Second {
		t.Fatalf("elections = %+v, want IRL to win epoch 1 before 3s", recs)
	}
	if !errors.Is(err, ErrLeaderLost) || len(views) != 0 {
		t.Fatalf("enqueue at the deposed leader: err %v, views %v; want ErrLeaderLost and no view", err, views)
	}
	if at < 4*time.Second || at > 4300*time.Millisecond {
		t.Errorf("enqueue failed %v after the cut, want just after the 4s heal", at)
	}
	var acked *QueueElement
	if err := NewQueueClient(e, netsim.IRL, netsim.IRL).Enqueue("q", []byte("kept"), false, func(v QueueView) { acked = v.Element }); err != nil {
		t.Fatalf("enqueue through the new leader: %v", err)
	}
	clock.Sleep(2 * time.Second) // resync from the new leader, FRK steps down
	for _, r := range []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG} {
		if kids, err := e.Server(r).Tree().Children("/queues/q"); err != nil || len(kids) != 1 || kids[0] != acked.Name {
			t.Errorf("%s holds %v (%v); want exactly the acknowledged [%s]", r, kids, err, acked.Name)
		}
	}
	inj.Quiesce()
	clock.Drain()
}

// TestForwardStalledAtDeposedLeaderIsResent is ROADMAP item 2(b), fixed: a
// forward stalled on its way to a deposed leader is re-sent when its contact
// hears of a newer epoch, and is proposed by the leader it was re-sent to,
// never by a server it did not reach. FRK leads and is partitioned away at
// once; at 1s the IRL contact forwards an enqueue to FRK, the leader it has
// heard of, and the forward stalls; IRL wins epoch 1 at ~2.59s and proposes
// the enqueue itself, after its own watermark, committed in epoch 1 with
// VRG's ack before the 4s heal. The stalled forward lands at FRK after the
// heal and is discarded there, and the element is on every server.
func TestForwardStalledAtDeposedLeaderIsResent(t *testing.T) {
	resentScene(t, true, 1, func(qc *QueueClient) error { return qc.CreateQueue("q") }, func(qc *QueueClient) ([]string, error) {
		views, err := invoke(binding.NewClient(NewBinding(qc)), binding.Enqueue{Queue: "q", Item: []byte("forwarded")})
		if err != nil {
			return nil, err
		}
		return []string{views[len(views)-1].Value.ID}, nil
	})
}

// TestBlockingEnqueueStalledAtDeposedLeaderIsResent is its twin for a
// blocking call: the forward of QueueClient.Enqueue is re-sent too, and the
// call returns before the heal.
func TestBlockingEnqueueStalledAtDeposedLeaderIsResent(t *testing.T) {
	resentScene(t, true, 1, func(qc *QueueClient) error { return qc.CreateQueue("q") }, func(qc *QueueClient) ([]string, error) {
		var final QueueView
		err := qc.Enqueue("q", []byte("forwarded"), true, func(v QueueView) { final = v })
		if err != nil || final.Element == nil {
			return nil, fmt.Errorf("final view %+v, error %v", final, err)
		}
		return []string{final.Element.Name}, nil
	})
}

// TestVanillaDequeueStalledAtDeposedLeaderIsResent is its twin for the
// vanilla dequeue recipe through the Binding: the contact reads the queue
// itself, and the delete's forward is re-sent; the queue is empty on every
// server.
func TestVanillaDequeueStalledAtDeposedLeaderIsResent(t *testing.T) {
	resentScene(t, false, 1, func(qc *QueueClient) error {
		if err := qc.CreateQueue("q"); err != nil {
			return err
		}
		return qc.Enqueue("q", []byte("stocked"), false, func(QueueView) {})
	}, func(qc *QueueClient) ([]string, error) {
		views, err := invoke(binding.NewClient(NewBinding(qc)), binding.Dequeue{Queue: "q"})
		if err == nil && (len(views) != 1 || string(views[0].Value.Data) != "stocked") {
			err = fmt.Errorf("views %+v, want the stocked element's", views)
		}
		return []string{}, err
	})
}

// TestCreateQueueStalledAtDeposedLeaderIsResent is its twin for
// CreateQueue: the forward of its create of /queues is re-sent, and the
// directory's create follows it to IRL; both commit in epoch 1.
func TestCreateQueueStalledAtDeposedLeaderIsResent(t *testing.T) {
	resentScene(t, true, 2, func(*QueueClient) error { return nil }, func(qc *QueueClient) ([]string, error) {
		return []string{}, qc.CreateQueue("q")
	})
}

// TestResyncedContactForwardsToNewLeader: a snapshot from the leader of a
// newer epoch tells the server it resyncs who leads. FRK leads and is cut
// off at once; IRL wins epoch 1 at ~2.58s; the 4s heal resyncs FRK from IRL
// by state transfer, and an enqueue at contact FRK at 4.02s — before IRL's
// next heartbeat reaches FRK at ~4.09s — is forwarded to IRL on its first
// attempt and commits there in epoch 1. Had FRK gone on naming itself, its
// own leadership of epoch 0 would fail the enqueue with ErrLeaderLost.
func TestResyncedContactForwardsToNewLeader(t *testing.T) {
	e, inj, clock, _ := newElectionEnsemble(t, netsim.FRK, netsim.IRL, netsim.VRG)
	qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}})
	clock.SleepUntil(start + 4*time.Second)
	inj.Apply(faults.Heal{})
	clock.SleepUntil(start + 4020*time.Millisecond)
	frk, irl := e.Server(netsim.FRK), e.Server(netsim.IRL)
	if got := frk.Role(); got != "leader" {
		t.Fatalf("FRK at 4.02s: role %s, want leader, not yet reached by IRL's heartbeat", got)
	}
	if heard, ep := frk.heardOf(); heard != irl || ep != 1 {
		t.Fatalf("FRK resynced by IRL has heard of %s in epoch %d, want IRL in epoch 1", nameOf(heard), ep)
	}
	var final QueueView
	if err := qc.Enqueue("q", []byte("x"), false, func(v QueueView) { final = v }); err != nil {
		t.Fatalf("enqueue at the resynced contact: %v", err)
	}
	if at := clock.Now() - start; final.Zxid>>32 != 1 || at > 4090*time.Millisecond {
		t.Errorf("enqueue committed at version %#x, %v after the cut; want epoch 1 and before IRL's heartbeat reaches FRK at ~4.09s", final.Zxid, at)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestHeldForwardIsPending: the shape playQueueScene's seed 18 took before
// stepDown cleared only a self-reference. Contact IRL names no leader,
// although its epoch is the leader's, so no heartbeat of that epoch moves
// it: the forward of an enqueue waits on IRL's list, on no actor. Once the
// faults are quiesced and the clock drained, Parked does not count it, and
// PendingForwards names its contact.
func TestHeldForwardIsPending(t *testing.T) {
	e, inj, clock, _ := newElectionEnsemble(t, netsim.FRK, netsim.IRL, netsim.VRG)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if held := e.PendingForwards(); len(held) != 0 {
		t.Fatalf("PendingForwards() = %v on a settled ensemble, want none", held)
	}
	irl := e.Server(netsim.IRL)
	e.elect.mu.Lock()
	irl.election.heard = nil
	e.elect.mu.Unlock()
	var views []binding.Result
	NewBinding(qc).SubmitOperation(context.Background(), binding.Enqueue{Queue: "q", Item: []byte("x")},
		core.Levels{core.LevelWeak, core.LevelStrong}, func(r binding.Result) { views = append(views, r) })
	inj.Quiesce()
	clock.Drain()
	if n := clock.Parked(); n != 0 {
		t.Errorf("Parked() = %d, want 0: the held forward waits on no actor", n)
	}
	if held := e.PendingForwards(); !slices.Equal(held, []netsim.Region{netsim.IRL}) {
		t.Errorf("PendingForwards() = %v, want [IRL]", held)
	}
	if len(views) != 1 || views[0].Level != core.LevelWeak {
		t.Errorf("the held enqueue delivered %v, want its preliminary alone", views)
	}
}

// resentScene plays the scene of TestForwardStalledAtDeposedLeaderIsResent
// on a CZK or vanilla ensemble: prepare runs at an IRL client with contact
// IRL on the healthy ensemble, then FRK is cut off, and at 1s op runs there,
// committing commits transactions. op must return before the heal, after
// IRL's win, with those transactions numbered by IRL in epoch 1 after its
// own watermark and acked by VRG, none by FRK; in the end every server's
// queue q holds exactly the elements op names.
func resentScene(t *testing.T, correctable bool, commits uint64, prepare func(*QueueClient) error, op func(*QueueClient) ([]string, error)) {
	t.Helper()
	e, inj, clock, _ := newElectionEnsembleOf(t, correctable, netsim.FRK, netsim.IRL, netsim.VRG)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := prepare(qc); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}})
	clock.RunAt(start+4*time.Second, func() { inj.Apply(faults.Heal{}) })
	clock.SleepUntil(start + time.Second)
	irl, frk := e.Server(netsim.IRL), e.Server(netsim.FRK)
	next := irl.LastApplied() + 1
	frkEpoch, frkApplied := frk.epochApplied()
	numbered := false // FRK's own-epoch watermark moved: it numbered something
	var watch func()
	watch = func() {
		if ep, ap := frk.epochApplied(); ep == frkEpoch && ap != frkApplied {
			numbered = true
		}
		if clock.Now() < start+5*time.Second {
			clock.RunAfter(time.Millisecond, watch)
		}
	}
	watch()
	kids, err := op(qc)
	at := clock.Now() - start
	irlEpoch, irlApplied := irl.epochApplied()

	recs := e.Elections()
	if len(recs) != 1 || recs[0].Leader != netsim.IRL || recs[0].Epoch != 1 || recs[0].At-start > 3*time.Second {
		t.Fatalf("elections = %+v, want IRL to win epoch 1 before 3s", recs)
	}
	if err != nil {
		t.Fatalf("forwarded operation: %v", err)
	}
	if at < recs[0].At-start || at > 4*time.Second {
		t.Errorf("forwarded operation completed %v after the cut, want after IRL's win at %v and before the 4s heal", at, recs[0].At-start)
	}
	if last := next + commits - 1; irlEpoch != 1 || irlApplied != last {
		t.Errorf("IRL at (epoch %d, zxid %d) after the commit, want (1, %d): its own next zxids", irlEpoch, irlApplied, last)
	}
	vrg := e.Server(netsim.VRG)
	vrg.mu.Lock()
	accepted := vrg.accepted[next]
	vrg.mu.Unlock()
	if accepted.Epoch != 1 {
		t.Errorf("VRG accepted zxid %d in epoch %d, want 1", next, accepted.Epoch)
	}
	clock.Sleep(2 * time.Second) // FRK is resynced and steps down
	if numbered {
		t.Errorf("FRK numbered a transaction in epoch %d after zxid %d", frkEpoch, frkApplied)
	}
	for _, r := range []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG} {
		if got, err := e.Server(r).Tree().Children("/queues/q"); err != nil || !slices.Equal(got, kids) {
			t.Errorf("%s holds %v (%v); want %v", r, got, err, kids)
		}
	}
	inj.Quiesce()
	clock.Drain()
}

// TestSmallEnsembleRecoversFromPartition: elections run at every ensemble
// size. A one-server ensemble cut off from its clients, and a two-server one
// split in half, each commit the enqueue the partition caught in flight, and
// a strong enqueue from every server as contact once the heal is
// RecoveryTimeouts election timeouts old; after Drain nothing waits: no
// actor is parked and no forward pends.
func TestSmallEnsembleRecoversFromPartition(t *testing.T) {
	for _, regions := range [][]netsim.Region{{netsim.FRK}, {netsim.FRK, netsim.IRL}} {
		n := len(regions)
		e, inj, clock, _ := newElectionEnsemble(t, regions...)
		if err := NewQueueClient(e, netsim.FRK, netsim.FRK).CreateQueue("q"); err != nil {
			t.Fatalf("%d servers: %v", n, err)
		}
		inj.Apply(faults.Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL}}})
		var caught []binding.Result
		NewBinding(NewQueueClient(e, netsim.IRL, regions[n-1])).SubmitOperation(context.Background(),
			binding.Enqueue{Queue: "q", Item: []byte("caught")}, core.Levels{core.LevelStrong},
			func(r binding.Result) { caught = append(caught, r) })
		clock.Sleep(3 * e.cfg.ElectionTimeout) // past every server's timeout
		inj.Apply(faults.Heal{})
		clock.Sleep(RecoveryTimeouts * e.cfg.ElectionTimeout)
		if len(caught) != 1 || caught[0].Err != nil || caught[0].Level != core.LevelStrong {
			t.Errorf("%d servers: the enqueue caught by the partition delivered %+v, want one strong view", n, caught)
		}
		for _, r := range regions {
			if err := NewQueueClient(e, r, r).Enqueue("q", []byte(r), false, func(QueueView) {}); err != nil {
				t.Errorf("%d servers: a strong enqueue from contact %s after the heal: %v", n, r, err)
			}
		}
		inj.Quiesce()
		clock.Drain()
		if p := clock.Parked(); p != 0 {
			t.Errorf("%d servers: Parked() = %d after Drain, want 0", n, p)
		}
		if held := e.PendingForwards(); len(held) != 0 {
			t.Errorf("%d servers: PendingForwards() = %v after Drain, want none", n, held)
		}
	}
}
