package zk

import (
	"context"
	"errors"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// newFaultedEnsemble builds a correctable ensemble on a virtual-clock
// transport with a schedule-less injector attached (tests drive faults
// with Apply).
func newFaultedEnsemble(t *testing.T) (*Ensemble, *faults.Injector, *netsim.VirtualClock) {
	t.Helper()
	return faultedEnsemble(t, 500*time.Millisecond)
}

// faultedEnsemble is newFaultedEnsemble with the given OpTimeout.
func faultedEnsemble(t *testing.T, opTimeout time.Duration) (*Ensemble, *faults.Injector, *netsim.VirtualClock) {
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
		OpTimeout:    opTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, inj, clock
}

// invoke issues op through the client library at every level the ensemble
// offers and waits for it to end. Tests that run under an interceptor go this
// way: the library owns the operation deadline (the ensemble's OpTimeout
// while an interceptor is attached), the QueueClient's methods have none.
func invoke(c *binding.Client, op binding.OperationFor[binding.Item]) ([]core.View[binding.Item], error) {
	cor := binding.Invoke(context.Background(), c, op)
	_, err := cor.Final(context.Background())
	return cor.Views(), err
}

// invokeStrong is invoke for the committed view alone.
func invokeStrong(c *binding.Client, op binding.OperationFor[binding.Item]) error {
	_, err := binding.InvokeStrong(context.Background(), c, op).Final(context.Background())
	return err
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
	client := binding.NewClient(NewBinding(qc))

	inj.Apply(faults.Crash{Region: netsim.VRG})
	for i := 0; i < 5; i++ {
		// Quorum is leader + one follower (IRL): commits keep succeeding
		// with VRG down.
		if err := invokeStrong(client, binding.Enqueue{Queue: "q", Item: []byte("x")}); err != nil {
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
	client := binding.NewClient(NewBinding(qc))

	inj.Apply(faults.Crash{Region: netsim.IRL})
	inj.Apply(faults.Crash{Region: netsim.VRG})
	if _, err := invoke(client, binding.Enqueue{Queue: "q", Item: []byte("x")}); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("enqueue under quorum loss: %v, want ErrUnreachable", err)
	}

	inj.Apply(faults.Restart{Region: netsim.IRL})
	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second)
	if err := invokeStrong(client, binding.Enqueue{Queue: "q", Item: []byte("y")}); err != nil {
		t.Fatalf("enqueue after recovery: %v", err)
	}
	inj.Quiesce()
	clock.Drain()
}
