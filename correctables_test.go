package correctables_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"correctables"
	"correctables/internal/cassandra"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// newFacadeCluster builds a small CC deployment for facade-level tests, on a
// virtual clock whose root actor is the calling test and which is drained
// when the test ends.
func newFacadeCluster(t *testing.T) *correctables.Client {
	t.Helper()
	clock := netsim.NewVirtualClock()
	t.Cleanup(clock.Drain)
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:          []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:        tr,
		Correctable:      true,
		ConfirmationOpt:  true,
		ReadServiceTime:  50 * time.Microsecond,
		WriteServiceTime: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Preload("k", []byte("v"))
	return correctables.NewClient(cassandra.NewBinding(
		cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{}))
}

// TestFacadeEndToEnd: a typed end-to-end ICG read — Invoke[[]byte] via the
// Get operation, not a single type assertion anywhere.
func TestFacadeEndToEnd(t *testing.T) {
	client := newFacadeCluster(t)
	ctx := context.Background()

	cor := correctables.Invoke(ctx, client, correctables.Get{Key: "k"})
	v, err := cor.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != correctables.LevelStrong || string(v.Value) != "v" {
		t.Errorf("final = %+v", v)
	}
	views := cor.Views()
	if len(views) != 2 || views[0].Level != correctables.LevelWeak {
		t.Errorf("views = %+v", views)
	}
	if cor.State() != correctables.StateFinal {
		t.Errorf("state = %v", cor.State())
	}
}

// TestFacadeSpeculate: the typed speculation path — []byte views in, string
// result out, still no assertions.
func TestFacadeSpeculate(t *testing.T) {
	client := newFacadeCluster(t)
	ctx := context.Background()
	out := correctables.Speculate(
		correctables.Invoke(ctx, client, correctables.Get{Key: "k"}),
		func(v correctables.View[[]byte]) (string, error) {
			return "spec:" + string(v.Value), nil
		}, nil)
	v, err := out.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != "spec:v" {
		t.Errorf("speculation result = %v", v.Value)
	}
}

// TestFacadeTypedNoAssertions is the acceptance test of the typed redesign:
// an app can Invoke[[]byte] a Get, Speculate on it and wait on levels, with
// every value statically typed end to end.
func TestFacadeTypedNoAssertions(t *testing.T) {
	client := newFacadeCluster(t)
	ctx := context.Background()

	// Invoke → Speculate: View[[]byte] in, []string out.
	words := correctables.Speculate(
		correctables.Invoke(ctx, client, correctables.Get{Key: "k"}),
		func(v correctables.View[[]byte]) ([]string, error) {
			return strings.Fields(string(v.Value)), nil
		}, nil)
	wv, err := words.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wv.Value) != 1 || wv.Value[0] != "v" {
		t.Errorf("speculated words = %v", wv.Value)
	}

	// WaitLevel returns the typed preliminary view.
	cor := correctables.Invoke(ctx, client, correctables.Get{Key: "k"})
	weak, err := cor.WaitLevel(ctx, correctables.LevelWeak)
	if err != nil {
		t.Fatal(err)
	}
	if string(weak.Value) != "v" {
		t.Errorf("weak view = %q", weak.Value)
	}
}

// TestFacadeInvokeUnsupportedLevels: requesting a level the binding does
// not offer, or an effectively empty level set, fails the Correctable with
// ErrUnsupportedLevel.
func TestFacadeInvokeUnsupportedLevels(t *testing.T) {
	client := newFacadeCluster(t)
	ctx := context.Background()

	// Cassandra offers weak+strong only.
	cor := correctables.Invoke(ctx, client, correctables.Get{Key: "k"}, correctables.LevelCausal)
	if _, err := cor.Final(ctx); !errors.Is(err, correctables.ErrUnsupportedLevel) {
		t.Errorf("unsupported level err = %v", err)
	}

	// A level list that normalizes to the empty set (only LevelNone).
	cor = correctables.Invoke(ctx, client, correctables.Get{Key: "k"}, correctables.LevelNone)
	if _, err := cor.Final(ctx); !errors.Is(err, correctables.ErrUnsupportedLevel) {
		t.Errorf("empty level set err = %v", err)
	}
}

func TestFacadeControllerAndErrors(t *testing.T) {
	cor, ctrl := correctables.New[string]()
	if err := ctrl.Update("p", correctables.LevelWeak); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close("f", correctables.LevelStrong); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close("again", correctables.LevelStrong); !errors.Is(err, correctables.ErrClosed) {
		t.Errorf("second close = %v", err)
	}
	if _, err := cor.WaitLevel(context.Background(), correctables.LevelStrong); err != nil {
		t.Errorf("WaitLevel = %v", err)
	}
}

// parityEqualer judges equality on value parity — a custom Equaler[T].
type parityEqualer struct{ N int }

func (p parityEqualer) EqualValue(other parityEqualer) bool { return p.N%2 == other.N%2 }

// TestFacadeValuesEqualCustomEqualer: ValuesEqual consults Equaler[T] when
// implemented, bytes.Equal for []byte, and reflect.DeepEqual otherwise.
func TestFacadeValuesEqualCustomEqualer(t *testing.T) {
	if !correctables.ValuesEqual(parityEqualer{2}, parityEqualer{8}) {
		t.Error("custom Equaler[T] not consulted")
	}
	if correctables.ValuesEqual(parityEqualer{1}, parityEqualer{8}) {
		t.Error("custom Equaler[T] mismatch not detected")
	}
	// Structurally different but parity-equal — only the Equaler view makes
	// them equal, proving reflection was not used.
	if !correctables.ValuesEqual(parityEqualer{4}, parityEqualer{100}) {
		t.Error("Equaler should ignore structural differences")
	}
	// Fallbacks.
	if !correctables.ValuesEqual([]byte{1, 2}, []byte{1, 2}) || correctables.ValuesEqual([]byte{1}, []byte{2}) {
		t.Error("[]byte fast path broken")
	}
	type plain struct{ A, B int }
	if !correctables.ValuesEqual(plain{1, 2}, plain{1, 2}) || correctables.ValuesEqual(plain{1, 2}, plain{2, 1}) {
		t.Error("reflect fallback broken")
	}
	// Item judges identity, ignoring Data/Remaining.
	a := correctables.Item{ID: "q-1", Exists: true, Remaining: 4}
	b := correctables.Item{ID: "q-1", Data: []byte("x"), Exists: true}
	if !correctables.ValuesEqual(a, b) {
		t.Error("Item Equaler not consulted")
	}
}

func TestFacadeQueueOps(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Drain()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	e, err := zk.NewEnsemble(zk.Config{
		Regions:      []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion: netsim.IRL,
		Transport:    tr,
		Correctable:  true,
		ServiceTime:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Bootstrap(zk.CreateTxn{Path: "/queues"})
	e.Bootstrap(zk.CreateTxn{Path: "/queues/q"})
	client := correctables.NewClient(zk.NewBinding(zk.NewQueueClient(e, netsim.IRL, netsim.FRK)))
	ctx := context.Background()

	if _, err := correctables.Invoke(ctx, client, correctables.Enqueue{Queue: "q", Item: []byte("x")}).Final(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := correctables.Invoke(ctx, client, correctables.Dequeue{Queue: "q"}).Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Value.Exists || string(v.Value.Data) != "x" {
		t.Errorf("dequeue = %+v", v.Value)
	}
}

// TestFacadeSession: the session API works end to end over a real binding
// through the root package — a session read after a session write observes
// the write at every delivered level.
func TestFacadeSession(t *testing.T) {
	client := newFacadeCluster(t)
	ctx := context.Background()
	sess := correctables.NewSession(client)
	if _, err := sess.Put(ctx, "sess-k", []byte("mine")).Final(ctx); err != nil {
		t.Fatal(err)
	}
	floor := sess.Floor("sess-k")
	if floor == 0 {
		t.Fatal("session write did not raise the floor")
	}
	cor := sess.Get(ctx, "sess-k")
	if v, err := cor.Final(ctx); err != nil || string(v.Value) != "mine" {
		t.Fatalf("session read = %+v, %v", v, err)
	}
	for _, v := range cor.Views() {
		if string(v.Value) != "mine" {
			t.Errorf("session view %v delivered %q, want the session's own write", v.Level, v.Value)
		}
	}
}

func TestFacadeLevelOrdering(t *testing.T) {
	if correctables.LevelWeak.AtLeast(correctables.LevelStrong) || !correctables.LevelStrong.AtLeast(correctables.LevelWeak) {
		t.Error("level ordering broken")
	}
	ls := correctables.Levels{correctables.LevelStrong, correctables.LevelCache}
	if ls.Sorted()[0] != correctables.LevelCache || ls.Strongest() != correctables.LevelStrong {
		t.Error("Levels helpers broken")
	}
}
