package cassandra

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// The value contract (binding.Result): a store copies a value once, on its
// way in, clipped to cap == len; everything handed out aliases that copy and
// nothing ever writes into it. These tests pin the three things a caller may
// rely on — its own buffer is its own again once the write returned, a view
// it kept survives any later write of the key, and an append to a view
// cannot reach shared memory.

// valueReader reads key at both levels and returns the weak and the strong
// view's bytes, as delivered.
type valueReader func(ctx context.Context, key string) (weak, strong []byte)

func readersUnderTest(t *testing.T, cluster *Cluster) map[string]valueReader {
	b := NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{})
	read := func(c *binding.Client) valueReader {
		return func(ctx context.Context, key string) ([]byte, []byte) {
			t.Helper()
			cor := binding.Invoke[[]byte](ctx, c, binding.Get{Key: key})
			if _, err := cor.Final(ctx); err != nil {
				t.Fatalf("read %q: %v", key, err)
			}
			views := cor.Views()
			if len(views) != 2 {
				t.Fatalf("read %q delivered %d views, want preliminary + final", key, len(views))
			}
			return views[0].Value, views[1].Value
		}
	}
	return map[string]valueReader{
		"single": read(binding.NewClient(b)),
	}
}

func TestStoredValuesAreCopiedOnceAndShared(t *testing.T) {
	cluster, _, clock := newTestCluster(t, true, true)
	kv := NewKV(NewBinding(NewClient(cluster, netsim.IRL, netsim.FRK), BindingConfig{WriteQuorum: 3}))
	ctx := context.Background()
	for name, read := range readersUnderTest(t, cluster) {
		t.Run(name, func(t *testing.T) {
			// The caller's buffer is the caller's again after the write.
			buf := []byte("written-1")
			if _, err := kv.Put(ctx, "put", buf).Final(ctx); err != nil {
				t.Fatal(err)
			}
			pre := []byte("preload-1")
			cluster.Preload("pre", pre)
			copy(buf, "XXXXXXXXX")
			copy(pre, "XXXXXXXXX")
			weak, strong := read(ctx, "put")
			if string(weak) != "written-1" || string(strong) != "written-1" {
				t.Errorf("read after the caller reused its Put buffer = %q / %q, want written-1", weak, strong)
			}
			if w, s := read(ctx, "pre"); string(w) != "preload-1" || string(s) != "preload-1" {
				t.Errorf("read after the caller reused its Preload buffer = %q / %q, want preload-1", w, s)
			}

			// One copy in, none out: both views are the replica's buffer,
			// with no spare capacity for an append to scribble into.
			if &weak[0] != &strong[0] {
				t.Error("the two views of one version do not share their bytes")
			}
			for _, v := range [][]byte{weak, strong} {
				if cap(v) != len(v) {
					t.Errorf("view has cap %d, len %d: an append would write into shared memory", cap(v), len(v))
				}
			}
			if stored := cluster.Replica(netsim.FRK).Get("put"); &stored.Bytes()[0] != &strong[0] {
				t.Error("the view is a copy of the replica's value, not the value")
			}

			// The store replaces, never writes in place: a retained view
			// keeps its bytes across an overwrite of its key.
			if _, err := kv.Put(ctx, "put", []byte("written-2")).Final(ctx); err != nil {
				t.Fatal(err)
			}
			if _, s := read(ctx, "put"); string(s) != "written-2" {
				t.Errorf("read after the overwrite = %q, want written-2", s)
			}
			if string(weak) != "written-1" || string(strong) != "written-1" {
				t.Errorf("views retained across an overwrite now read %q / %q, want written-1", weak, strong)
			}
		})
	}
	clock.Drain()
}

// stallFirst is a netsim.Interceptor that holds the first n messages of one
// directed replica link until heal fires and delivers everything else: the
// smallest fault that parks one operation's peer leg while its neighbours
// run.
type stallFirst struct {
	from, to netsim.Region
	n        int
	heal     *netsim.Event
}

func (s *stallFirst) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if s.n > 0 && from == s.from && to == s.to && class == netsim.LinkReplica {
		s.n--
		return netsim.VerdictStall, 1
	}
	return netsim.VerdictDeliver, 1
}

func (s *stallFirst) Changed() *netsim.Event { return s.heal }

// held counts the records on a free list: it takes them all and puts them
// back in the order it found them.
func held[T any](l *netsim.FreeList[T]) int {
	var taken []*T
	for x := l.Take(); x != nil; x = l.Take() {
		taken = append(taken, x)
	}
	for i := len(taken) - 1; i >= 0; i-- {
		l.Put(taken[i])
	}
	return len(taken)
}

// TestAbandonedReadKeepsItsRecord pins the record lifetimes (run it with
// -race -count=20): a read whose peer leg is stalled is timed out by the
// client library and abandoned — not recycled: its continuation chain still
// owns its record and gather — while reads of other keys go through the
// same binding and its free lists. Each of them must deliver its own key's
// value; after the heal the abandoned read's final view is refused, nothing
// stays parked, every goroutine is gone, and the free lists hold no more
// records than were ever in flight at once.
func TestAbandonedReadKeepsItsRecord(t *testing.T) {
	const (
		client, coord = netsim.IRL, netsim.FRK
		readers       = 3
		readsEach     = 8
		inFlight      = 1 + readers
	)
	base := runtime.NumGoroutine()
	cluster, _, clock := newTestCluster(t, true, true)
	for i := 0; i < readers*readsEach; i++ {
		cluster.Preload(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	cluster.Preload("stalled", []byte("late"))
	nearest := cluster.othersByProximity(coord)[0]
	heal := clock.NewEvent()
	cluster.tr.SetInterceptor(&stallFirst{from: coord, to: nearest, n: 1, heal: heal})

	b := NewBinding(NewClient(cluster, client, coord), BindingConfig{})
	kv := NewKV(b, binding.WithOpTimeout(150*time.Millisecond))
	ctx := context.Background()

	// The first read's peer leg takes the stall; the others start once it
	// has, and outlast the first one's timeout.
	abandoned := kv.Get(ctx, "stalled")
	clock.Sleep(50 * time.Millisecond)
	others := clock.NewGroup()
	others.Add(readers)
	for r := 0; r < readers; r++ {
		clock.Go(func() {
			defer others.Done()
			for j := 0; j < readsEach; j++ {
				i := r*readsEach + j
				v, err := kv.Get(ctx, fmt.Sprintf("k%d", i)).Final(ctx)
				if err != nil {
					t.Errorf("read k%d beside the stalled one: %v", i, err)
				} else if want := fmt.Sprintf("v%d", i); string(v.Value) != want {
					t.Errorf("read k%d delivered %q, want %q: a record served two operations at once", i, v.Value, want)
				}
			}
		})
	}
	if _, err := abandoned.Final(ctx); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("stalled read ended with %v, want ErrUnreachable from the client's timeout", err)
	}
	others.Wait()
	if got := held(&b.free); got > readers {
		t.Errorf("free list holds %d records while the abandoned read still runs, want at most the %d finished readers'", got, readers)
	}

	heal.Fire()
	clock.Drain()
	views := abandoned.Views()
	if len(views) != 1 || views[0].Level != core.LevelWeak || string(views[0].Value) != "late" {
		t.Errorf("abandoned read holds views %v, want its preliminary alone: the late final must be refused", views)
	}
	if n := clock.Parked(); n != 0 {
		t.Errorf("%d actors still parked after the heal and Drain", n)
	}
	if got := held(&b.free); got < 1 || got > inFlight {
		t.Errorf("free list holds %d records, want 1..%d (the most ever in flight at once)", got, inFlight)
	}
	if got := held(&cluster.gathers); got < 1 || got > inFlight {
		t.Errorf("gather free list holds %d, want 1..%d", got, inFlight)
	}
	waitGoroutines(t, base)
}
