package zk

import (
	"errors"
	"testing"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// newFaultedEnsemble builds a correctable ensemble on a virtual-clock
// transport with a schedule-less injector attached (tests drive faults
// with Apply).
func newFaultedEnsemble(t *testing.T) (*Ensemble, *faults.Injector, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	inj := faults.Attach(tr, nil, 1)
	e, err := NewEnsemble(Config{
		Regions:      []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion: netsim.FRK,
		Transport:    tr,
		Correctable:  true,
		ServiceTime:  100 * time.Microsecond,
		OpTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, inj, clock
}

// TestCrashedFollowerResyncsOnRestart is the zk crash/recovery semantic: a
// crashed follower misses the commit stream (dropped in flight), lags the
// leader while down, and is resynced by leader state transfer after its
// restart — the ensemble converges without wedging on the zxid gap.
func TestCrashedFollowerResyncsOnRestart(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.IRL, netsim.IRL)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Crash{Region: netsim.VRG})
	for i := 0; i < 5; i++ {
		// Quorum is leader + one follower (IRL): commits keep succeeding
		// with VRG down.
		if err := qc.Enqueue("q", []byte("x"), false, func(QueueView) {}); err != nil {
			t.Fatalf("enqueue %d with one follower down: %v", i, err)
		}
	}
	leaderZxid := e.Leader().LastApplied()
	if got := e.Server(netsim.VRG).LastApplied(); got >= leaderZxid {
		t.Fatalf("crashed follower at zxid %d, leader %d; expected a lag", got, leaderZxid)
	}

	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second) // state transfer travels leader->VRG
	if got := e.Server(netsim.VRG).LastApplied(); got < leaderZxid {
		t.Fatalf("restarted follower at zxid %d, want >= %d after resync", got, leaderZxid)
	}
	if got, want := e.Server(netsim.VRG).Tree().NodeCount(), e.Leader().Tree().NodeCount(); got != want {
		t.Errorf("restarted follower has %d znodes, leader %d", got, want)
	}
	inj.Quiesce()
	clock.Drain()
}

// TestQuorumLossFailsUnreachable: with both followers down the leader
// cannot commit; a queue operation fails with faults.ErrUnreachable via
// the model-time timeout instead of hanging, and succeeds again after
// recovery.
func TestQuorumLossFailsUnreachable(t *testing.T) {
	e, inj, clock := newFaultedEnsemble(t)
	qc := NewQueueClient(e, netsim.FRK, netsim.FRK)
	if err := qc.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}

	inj.Apply(faults.Crash{Region: netsim.IRL})
	inj.Apply(faults.Crash{Region: netsim.VRG})
	views := 0
	err := qc.Enqueue("q", []byte("x"), true, func(QueueView) { views++ })
	if !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("enqueue under quorum loss: %v, want ErrUnreachable", err)
	}

	inj.Apply(faults.Restart{Region: netsim.IRL})
	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second)
	if err := qc.Enqueue("q", []byte("y"), false, func(QueueView) {}); err != nil {
		t.Fatalf("enqueue after recovery: %v", err)
	}
	inj.Quiesce()
	clock.Drain()
}
