package correctables_test

// History-checked runs across all four real bindings: one virtual-clock
// world, a crash/restart cycle in the middle, every operation issued
// through sessions with a history.Recorder on the invoke pipeline — then
// the recorded histories are verified: session guarantees on all four
// bindings, register linearizability for the cassandra keys, FIFO-queue
// linearizability for the zk queue. This is the acceptance criterion that
// the checkers report zero violations on real bindings (the mutation test
// in internal/history proves they do flag broken ones).

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"correctables"
	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/causal"
	"correctables/internal/chain"
	"correctables/internal/faults"
	"correctables/internal/history"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// filterKeyPrefix selects the recorded ops whose key carries a prefix, so
// per-model linearizability checks see only their own object class.
func filterKeyPrefix(ops []history.Op, prefix string) []history.Op {
	var out []history.Op
	for _, op := range ops {
		if strings.HasPrefix(op.Key, prefix) {
			out = append(out, op)
		}
	}
	return out
}

func TestHistoryCheckedAcrossAllFourBindings(t *testing.T) {
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 9)
	inj := faults.Attach(tr, nil, 9)
	rec := history.NewRecorder()
	ctx := context.Background()
	opTimeout := 600 * time.Millisecond

	// --- the four stores, all on one transport ---
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:     []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:   tr,
		Correctable: true,
		OpTimeout:   opTimeout,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := zk.NewEnsemble(zk.Config{
		Regions:      []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion: netsim.FRK,
		Transport:    tr,
		Correctable:  true,
		OpTimeout:    opTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := causal.NewStore(causal.Config{
		Primary:   netsim.FRK,
		Backups:   []netsim.Region{netsim.IRL, netsim.VRG},
		Transport: tr,
		OpTimeout: opTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := chain.New(chain.Config{
		Transport:     tr,
		BlockInterval: 40 * time.Millisecond,
		MinerRegion:   netsim.IRL,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- session clients, all observed by one recorder ---
	cassSess := correctables.NewSession(correctables.NewClient(
		cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{StrongQuorum: 3}),
		correctables.WithObserver(rec), correctables.WithLabel("cass")))
	zkSess := correctables.NewSession(correctables.NewClient(
		zk.NewBinding(zk.NewQueueClient(ensemble, netsim.IRL, netsim.IRL)),
		correctables.WithObserver(rec), correctables.WithLabel("zk")))
	causalSess := correctables.NewSession(correctables.NewClient(
		causal.NewBinding(causal.NewClient(store, netsim.VRG)),
		correctables.WithObserver(rec), correctables.WithLabel("causal")))
	chainClient := correctables.NewClient(chain.NewBinding(ledger, 2),
		correctables.WithObserver(rec), correctables.WithLabel("chain"),
		correctables.WithOpTimeout(2*time.Second))
	chainSess := correctables.NewSession(chainClient)

	if err := zk.NewQueueClient(ensemble, netsim.IRL, netsim.IRL).CreateQueue("hist"); err != nil {
		t.Fatal(err)
	}

	// One round of traffic on every binding; errors are legitimate under
	// the crash window (recorded as ambiguous ops), except during healthy
	// phases where they would hide coverage.
	round := func(phase string, wantClean bool) {
		fail := func(binding string, err error) {
			if wantClean && err != nil {
				t.Fatalf("%s: %s op failed in healthy phase: %v", phase, binding, err)
			}
		}
		for i := 0; i < 4; i++ {
			_, err := cassSess.Put(ctx, fmt.Sprintf("ck-%d", i%2), []byte(phase)).Final(ctx)
			fail("cassandra", err)
			_, err = cassSess.Get(ctx, fmt.Sprintf("ck-%d", i%2)).Final(ctx)
			fail("cassandra", err)
		}
		for i := 0; i < 2; i++ {
			_, err := zkSess.Enqueue(ctx, "hist", []byte(phase)).Final(ctx)
			fail("zk", err)
		}
		_, err := zkSess.Dequeue(ctx, "hist").Final(ctx)
		fail("zk", err)
		for i := 0; i < 2; i++ {
			_, err := causalSess.Put(ctx, fmt.Sprintf("cau-%d", i), []byte(phase)).Final(ctx)
			fail("causal", err)
			_, err = causalSess.Get(ctx, fmt.Sprintf("cau-%d", i)).Final(ctx)
			fail("causal", err)
		}
		_, err = binding.SessionInvoke[chain.TxStatus](ctx, chainSess,
			chain.SubmitTx{ID: "tx-" + phase, Data: []byte(phase)}).Final(ctx)
		fail("chain", err)
	}

	round("healthy", true)
	inj.Apply(faults.Crash{Region: netsim.VRG})
	round("crash", false) // strong cassandra reads need VRG: timeouts expected
	inj.Apply(faults.Restart{Region: netsim.VRG})
	clock.Sleep(time.Second) // resync state transfers land
	round("recovered", false)

	ledger.Stop()
	inj.Quiesce()
	clock.Drain()

	// --- verify ---
	ops := rec.Ops()
	if len(ops) < 30 {
		t.Fatalf("recorded only %d ops", len(ops))
	}
	byClient := map[string]int{}
	for _, op := range ops {
		byClient[op.Client]++
	}
	for _, client := range []string{"cass", "zk", "causal", "chain"} {
		if byClient[client] == 0 {
			t.Errorf("no ops recorded for the %s binding", client)
		}
	}
	for _, v := range history.CheckSessionGuarantees(ops) {
		t.Errorf("session violation: %s", v)
	}
	linVs, inconclusive := history.CheckRegisters(filterKeyPrefix(ops, "ck-"), 0)
	for _, v := range linVs {
		t.Errorf("cassandra register violation: %s", v)
	}
	qVs, qInc := history.CheckQueues(filterKeyPrefix(ops, "hist"), 0)
	for _, v := range qVs {
		t.Errorf("zk queue violation: %s", v)
	}
	if len(inconclusive)+len(qInc) != 0 {
		t.Errorf("inconclusive checks: %v %v", inconclusive, qInc)
	}
}
