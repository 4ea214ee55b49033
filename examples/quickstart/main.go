// Quickstart: the Correctables API in one file.
//
// It builds a small simulated Correctable-Cassandra deployment (three
// replicas: Frankfurt, Ireland, Virginia), then demonstrates the three API
// methods of the paper (§3.2) — invokeWeak, invokeStrong, invoke — and the
// speculate pattern (§4.2). Latencies printed are model time: what a client
// in Ireland contacting the Frankfurt coordinator would observe on the real
// WAN.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"correctables"
	"correctables/internal/cassandra"
	"correctables/internal/history"
	"correctables/internal/netsim"
)

func main() {
	// Simulation fabric: deterministic virtual time. The demo completes
	// instantly; all printed latencies are model time — what a client in
	// Ireland contacting the Frankfurt coordinator would observe on the
	// real WAN.
	clock := netsim.NewVirtualClock()
	transport := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), 1)

	cluster, err := cassandra.NewCluster(cassandra.Config{
		Regions:         []netsim.Region{netsim.FRK, netsim.IRL, netsim.VRG},
		Transport:       transport,
		Correctable:     true, // server-side ICG support (§5.2)
		ConfirmationOpt: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Preload("greeting", []byte("hello, replicated world"))

	// The client lives in Ireland and contacts the Frankfurt coordinator.
	store := cassandra.NewClient(cluster, netsim.IRL, netsim.FRK)
	client := correctables.NewClient(cassandra.NewBinding(store, cassandra.BindingConfig{StrongQuorum: 2}))
	ctx := context.Background()

	// --- invokeWeak: fastest, single weakly consistent view. The typed
	// API means v.Value is a []byte — no assertions anywhere below. ---
	sw := clock.StartStopwatch()
	v, err := correctables.InvokeWeak(ctx, client, correctables.Get{Key: "greeting"}).Final(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("invokeWeak   -> %-28q level=%-6s after %v\n", v.Value, v.Level, round(sw.ElapsedModel()))

	// --- invokeStrong: quorum-reconciled, single strong view. ---
	sw = clock.StartStopwatch()
	v, err = correctables.InvokeStrong(ctx, client, correctables.Get{Key: "greeting"}).Final(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("invokeStrong -> %-28q level=%-6s after %v\n", v.Value, v.Level, round(sw.ElapsedModel()))

	// --- invoke: incremental consistency guarantees, both views. ---
	sw = clock.StartStopwatch()
	cor := correctables.Invoke(ctx, client, correctables.Get{Key: "greeting"})
	cor.OnUpdate(func(view correctables.View[[]byte]) {
		fmt.Printf("invoke       -> %-28q level=%-6s after %v (final=%v)\n",
			view.Value, view.Level, round(sw.ElapsedModel()), view.Final)
	})
	if _, err := cor.Final(ctx); err != nil {
		log.Fatal(err)
	}

	// --- speculate: hide strong-consistency latency behind work. The
	// speculation maps []byte views to a rendered string. ---
	sw = clock.StartStopwatch()
	result := correctables.Speculate(
		correctables.Invoke(ctx, client, correctables.Get{Key: "greeting"}),
		func(view correctables.View[[]byte]) (string, error) {
			// Expensive post-processing (e.g. fetching dependent objects),
			// started on the preliminary view.
			clock.Sleep(15 * time.Millisecond)
			return fmt.Sprintf("rendered(%s)", view.Value), nil
		}, nil)
	rendered, err := result.Final(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speculate    -> %-28q level=%-6s after %v\n", rendered.Value, rendered.Level, round(sw.ElapsedModel()))
	fmt.Println()
	fmt.Println("The speculative call finishes around the strong read's latency —")
	fmt.Println("the 15ms of post-processing ran during the quorum round trip.")

	// --- sessions + checking: cross-operation guarantees, recorded and
	// verified. A Session guarantees read-your-writes and monotonic reads
	// per key (stale preliminary views are suppressed, stale final reads
	// retried); a history.Recorder on the invoke path records every
	// operation with model-time timestamps and version tokens, and the
	// checkers verify the recorded history after the fact. ---
	rec := history.NewRecorder()
	sessClient := correctables.NewClient(
		cassandra.NewBinding(store, cassandra.BindingConfig{StrongQuorum: 2}),
		correctables.WithObserver(rec),
		correctables.WithOpTimeout(5*time.Second), // model-time per-op bound
		correctables.WithLabel("quickstart"),
	)
	sess := correctables.NewSession(sessClient)
	if _, err := sess.Put(ctx, "greeting", []byte("hello, sessions")).Final(ctx); err != nil {
		log.Fatal(err)
	}
	// Even the weakest read through the session observes the session's own
	// write — that is the guarantee, not an accident of timing.
	v, err = sess.GetWeak(ctx, "greeting").Final(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("session      -> %-28q level=%-6s (read-your-writes held)\n", v.Value, v.Level)

	ops := rec.Ops()
	violations := history.CheckSessionGuarantees(ops)
	fmt.Printf("checked      -> %d ops recorded, %d session-guarantee violations\n", len(ops), len(violations))
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
