package correctables_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"correctables"
	"correctables/internal/bench"
	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/faults"
	"correctables/internal/load"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// newExampleClient builds a three-region Correctable-Cassandra deployment
// on the deterministic virtual clock, preloaded with one key. All examples
// run instantly and print the same thing on every machine.
func newExampleClient(key, value string, opts ...correctables.Option) *correctables.Client {
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:         []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:       tr,
		Correctable:     true,
		ConfirmationOpt: true,
	})
	if err != nil {
		panic(err)
	}
	cluster.Preload(key, []byte(value))
	return correctables.NewClient(cassandra.NewBinding(
		cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{}), opts...)
}

// ExampleInvoke shows incremental consistency guarantees: one logical read,
// one typed view per consistency level, weakest first.
func ExampleInvoke() {
	client := newExampleClient("user:42", "ada")
	ctx := context.Background()

	cor := correctables.Invoke(ctx, client, correctables.Get{Key: "user:42"})
	cor.OnUpdate(func(v correctables.View[[]byte]) {
		fmt.Printf("%s view: %s (final=%v)\n", v.Level, v.Value, v.Final)
	})
	if _, err := cor.Final(ctx); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// weak view: ada (final=false)
	// strong view: ada (final=true)
}

// ExampleInvokeWeak reads at the weakest level only — a single fast view,
// typed []byte, no assertions.
func ExampleInvokeWeak() {
	client := newExampleClient("greeting", "hello")
	v, err := correctables.InvokeWeak(context.Background(), client, correctables.Get{Key: "greeting"}).
		Final(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s at level %s\n", v.Value, v.Level)
	// Output:
	// hello at level weak
}

// ExampleSpeculate hides strong-consistency latency: the speculation
// function runs on the preliminary view and the result is confirmed (or
// recomputed) when the final view arrives. The result type may differ from
// the source type — here []byte views become a rendered string.
func ExampleSpeculate() {
	client := newExampleClient("ads:7", "sneakers")
	ctx := context.Background()

	rendered := correctables.Speculate(
		correctables.Invoke(ctx, client, correctables.Get{Key: "ads:7"}),
		func(v correctables.View[[]byte]) (string, error) {
			return "ad<" + string(v.Value) + ">", nil
		}, nil)
	v, err := rendered.Final(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(v.Value, "-", v.Level)
	// Output:
	// ad<sneakers> - strong
}

// printObserver is a minimal Observer: it prints the invoke pipeline's
// event stream. Real observers (history.Recorder) record instead of print.
type printObserver struct{}

func (printObserver) OpStart(op correctables.OpInfo) {
	fmt.Printf("start %s(%s) by %s\n", op.Name, op.Key, op.Client)
}
func (printObserver) OpView(op correctables.OpInfo, v correctables.OpView) {
	// v.Version is the binding's per-object version token (opaque;
	// comparable within one object).
	fmt.Printf("  %s view, versioned=%v, final=%v\n", v.Level, v.Version > 0, v.Final)
}
func (printObserver) OpEnd(op correctables.OpInfo, at time.Duration, err error) {
	fmt.Printf("end %s(%s) err=%v\n", op.Name, op.Key, err)
}

// ExampleWithObserver hooks the invoke pipeline: every operation's start,
// views (with consistency level and version token) and end are observable —
// the recording surface consistency checkers build on.
func ExampleWithObserver() {
	client := newExampleClient("user:7", "grace",
		correctables.WithObserver(printObserver{}), correctables.WithLabel("app"))
	ctx := context.Background()
	if _, err := correctables.Invoke(ctx, client, correctables.Get{Key: "user:7"}).Final(ctx); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// start get(user:7) by app
	//   weak view, versioned=true, final=false
	//   strong view, versioned=true, final=true
	// end get(user:7) err=<nil>
}

// ExampleNewSession shows cross-operation guarantees: a session tracks the
// versions it has read and written per key, so a read after the session's
// own write never observes older state — at any consistency level. (A bare
// client promises nothing across operations; a stale preliminary after
// your own write is exactly what sessions suppress.)
func ExampleNewSession() {
	client := newExampleClient("profile:9", "old")
	ctx := context.Background()
	sess := correctables.NewSession(client)

	if _, err := sess.Put(ctx, "profile:9", []byte("new")).Final(ctx); err != nil {
		fmt.Println("error:", err)
		return
	}
	cor := sess.Get(ctx, "profile:9")
	cor.OnUpdate(func(v correctables.View[[]byte]) {
		fmt.Printf("%s view: %s\n", v.Level, v.Value)
	})
	if _, err := cor.Final(ctx); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("session floor raised: %v\n", sess.Floor("profile:9") > 0)
	// Output:
	// weak view: new
	// strong view: new
	// session floor raised: true
}

// ExampleWithOpTimeout bounds every invocation through a client in model
// time: an operation faults make impossible fails instead of hanging.
func ExampleWithOpTimeout() {
	client := newExampleClient("k", "v", correctables.WithOpTimeout(2*time.Second))
	fmt.Println("per-op bound:", client.OpTimeout())
	// Output:
	// per-op bound: 2s
}

// Example_failover is recovery as a first-class scenario: a partition
// severs the ZooKeeper leader's region mid-run. The severed contact keeps
// serving preliminary views from local state for the whole outage — the
// paper's availability claim — while the final acknowledgment, which needs
// a majority commit, fails with the operation timeout. Meanwhile the
// majority side elects a replacement leader, and after the heal the
// deposed leader rejoins as a follower and ordered commits flow again.
func Example_failover() {
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	inj := faults.Attach(tr, nil, 1)
	ensemble, err := zk.NewEnsemble(zk.Config{
		Regions:           []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		LeaderRegion:      netsim.FRK,
		Transport:         tr,
		Correctable:       true,
		OpTimeout:         2 * time.Second,
		HeartbeatInterval: 250 * time.Millisecond,
		ElectionTimeout:   time.Second,
	})
	if err != nil {
		panic(err)
	}
	qc := zk.NewQueueClient(ensemble, netsim.FRK, netsim.FRK)
	if err := qc.CreateQueue("jobs"); err != nil {
		panic(err)
	}
	// Operations go through the client library, which bounds each one with
	// the ensemble's OpTimeout while a fault injector is attached.
	client := correctables.NewClient(zk.NewBinding(qc))
	ctx := context.Background()

	// Sever the leader: no majority commit is possible anywhere until the
	// election, and none through this contact until the heal.
	inj.Apply(faults.Partition{Groups: [][]netsim.Region{
		{netsim.FRK}, {netsim.IRL, netsim.VRG}}})

	job := correctables.Invoke(ctx, client, correctables.Enqueue{Queue: "jobs", Item: []byte("job-1")})
	job.OnUpdate(func(v correctables.View[correctables.Item]) {
		if !v.Final {
			fmt.Printf("outage: preliminary view of %s served, final pending\n", v.Value.Data)
		}
	})
	_, err = job.Final(ctx)
	fmt.Println("outage: final view:", err)

	rec := ensemble.Elections()[0]
	fmt.Printf("recovered: %s elected for epoch %d after %v\n", rec.Leader, rec.Epoch, rec.At)

	inj.Apply(faults.Heal{})
	clock.Sleep(time.Second) // the deposed leader rejoins and resyncs
	_, err = correctables.InvokeStrong(ctx, client, correctables.Enqueue{Queue: "jobs", Item: []byte("job-2")}).Final(ctx)
	fmt.Println("healed: final view error:", err)

	inj.Quiesce()
	clock.Drain()
	// Output:
	// outage: preliminary view of job-1 served, final pending
	// outage: final view: faults: service unreachable: no terminal view within 2s (client op timeout)
	// recovered: eu-ireland elected for epoch 1 after 1.336092396s
	// healed: final view error: <nil>
}

// Example_overload shows admission control end to end: a load.Controller
// gates every invocation with per-client token buckets and adaptive
// backpressure. A client over its budget is rejected with a retryable
// error (the attached retry policy re-submits it after a seeded backoff);
// under sustained coordinator queueing the controller degrades reads to
// the preliminary level only — the cheap mode that breaks retry storms —
// and lifts the mode once the queue delay stays clean.
func Example_overload() {
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)
	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:     []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:   tr,
		Correctable: true,
	})
	if err != nil {
		panic(err)
	}
	cluster.Preload("k", []byte("v"))

	// queueDelay stands in for the contact replica's measured queueing
	// delay (netsim.Server.QueueDelay in the real experiment).
	var queueDelay atomic.Int64
	ctrl := load.NewController(load.Config{
		Clock:          clock,
		PerClientRate:  2, // ops/s — tiny, so the demo can trip it
		PerClientBurst: 1,
		Sample:         func() time.Duration { return time.Duration(queueDelay.Load()) },
		SampleEvery:    50 * time.Millisecond,
		Threshold:      50 * time.Millisecond,
		MaxRate:        1000,
		DegradeToWeak:  true,
	})
	ctrl.Start()

	client := correctables.NewClient(cassandra.NewBinding(
		cassandra.NewClient(cluster, netsim.IRL, netsim.FRK), cassandra.BindingConfig{}),
		correctables.WithLabel("app"),
		binding.WithAdmission(ctrl),
		binding.WithRetry(binding.RetryPolicy{
			Max:  1,
			Base: 600 * time.Millisecond,
			OnRetry: func(attempt int, delay time.Duration, err error) {
				fmt.Printf("rejected: retry %d in %v (%v)\n", attempt, delay, err)
			},
		}))
	ctx := context.Background()
	get := func(label string) {
		v, err := correctables.Invoke(ctx, client, correctables.Get{Key: "k"}).Final(ctx)
		if err != nil {
			fmt.Printf("%s: error: %v\n", label, err)
			return
		}
		fmt.Printf("%s: %s view of %s (final=%v)\n", label, v.Level, v.Value, v.Final)
	}

	get("healthy") // spends the client bucket's one-token burst
	get("retried") // over budget: rejected, re-submitted after the backoff

	// Sustained coordinator queueing: consecutive over-threshold samples
	// engage degrade-to-preliminary shedding.
	queueDelay.Store(int64(200 * time.Millisecond))
	clock.Sleep(700 * time.Millisecond)
	get("degraded")

	// The queue drains; clean samples lift the mode (with hysteresis).
	queueDelay.Store(0)
	clock.Sleep(700 * time.Millisecond)
	get("recovered")

	ctrl.Stop()
	clock.Drain()
	// Output:
	// healthy: strong view of v (final=true)
	// rejected: retry 1 in 600ms (load: rejected by admission control: client "app" over its rate limit (2 ops/s))
	// retried: strong view of v (final=true)
	// degraded: weak view of v (final=true)
	// recovered: strong view of v (final=true)
}

// Example_capacity runs the sharded-plane capacity study at smoke scale:
// per shard count, open-loop Poisson session storms flow through the AIMD
// admission gate into per-region token-aware coordinator stacks on one
// virtual clock, and each cell reports attained throughput, per-shard
// fairness and a consistency-checked sub-population. The full-size run
// (`icgbench -exp capacity`) starts over a million sessions in the widest
// cell and writes BENCH_capacity.json.
func Example_capacity() {
	res := bench.Capacity(bench.Config{Seed: 42, Quick: true})
	for _, r := range res.Rows {
		served := true
		for _, n := range r.PerShardHandled {
			served = served && n > 0
		}
		fmt.Printf("shards=%d: all sessions completed=%v, every shard served=%v, checks clean=%v\n",
			r.Shards, r.SessionsCompleted == r.SessionsStarted, served,
			r.Check.Violations() == 0)
	}
	fmt.Printf("ops throughput scaled >=3x from 1 to 8 shards: %v\n", res.ScalingX >= 3)
	// Output:
	// shards=1: all sessions completed=true, every shard served=true, checks clean=true
	// shards=2: all sessions completed=true, every shard served=true, checks clean=true
	// shards=4: all sessions completed=true, every shard served=true, checks clean=true
	// shards=8: all sessions completed=true, every shard served=true, checks clean=true
	// ops throughput scaled >=3x from 1 to 8 shards: true
}

// Example_hunt runs the nemesis hunt end to end against its own planted
// bug: a sweep of seeds over composed fault tracks (concurrent partition,
// crash and lossy-WAN schedules plus open-loop arrivals), every recorded
// history run through every checker, and the violating world shrunk by
// delta debugging into a minimal repro whose replay reproduces the
// violation byte for byte. A clean sweep (no planted bug) is the nightly
// CI gate; `icgbench -exp hunt` runs the full-size version.
func Example_hunt() {
	res, err := bench.Hunt(bench.Config{Seed: 42, Quick: true}, bench.HuntOptions{
		Seeds:    2,
		Profiles: []string{"tracks-harsh"},
		Workers:  2,
		Plant:    true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("findings: %d of %d runs\n", len(res.Findings), res.Runs)
	f := res.Findings[0]
	fmt.Printf("first: %s (client %s) on %q, profile %s seed %d\n",
		f.Guarantee, f.Client, f.Key, f.Profile, f.Seed)
	fmt.Printf("shrunk: %d -> %d fault events, %d -> %d clients\n",
		f.EventsBefore, f.EventsAfter, f.ClientsBefore, f.ClientsAfter)
	rep, err := bench.HuntReplay(f.Repro)
	if err != nil {
		panic(err)
	}
	fmt.Printf("replay identical: %v\n", rep.Identical)
	// Output:
	// findings: 2 of 2 runs
	// first: monotonic-reads (client sess-02) on "k-02", profile tracks-harsh seed 42
	// shrunk: 21 -> 1 fault events, 8 -> 5 clients
	// replay identical: true
}
