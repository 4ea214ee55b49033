// Blockchain confirmations as incremental views (paper §4.5).
//
// A Correctable is not limited to two views: this example tracks a
// simulated ledger transaction through six confirmations. Each new block
// deepens the transaction and triggers an update; at depth six the
// transaction is irrevocable with high probability and the Correctable
// closes with a strong view — same interface, arbitrarily many views.
//
// The ledger runs on the deterministic virtual clock: six Bitcoin-scale
// block intervals elapse in model time while the demo itself completes
// instantly, printing the model-time arrival of each confirmation.
//
// Run with: go run ./examples/blockchain
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"correctables"
	"correctables/internal/chain"
	"correctables/internal/history"
	"correctables/internal/netsim"
)

func main() {
	clock := netsim.NewVirtualClock()
	transport := netsim.NewTransport(clock, netsim.DefaultLatencies(), nil, 9)
	ledger, err := chain.New(chain.Config{
		Transport:     transport,
		BlockInterval: 10 * time.Minute, // Bitcoin's interval, at no wall cost
		Seed:          9,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ledger.Stop()

	const depth = 6
	// A history.Recorder on the invoke path records the submission and each
	// of its views, as quickstart's does.
	client := correctables.NewClient(chain.NewBinding(ledger, depth), correctables.WithObserver(history.NewRecorder()))
	sw := clock.StartStopwatch()

	fmt.Printf("submitting payment; waiting for %d confirmations...\n", depth)
	// chain.Submit is the typed facade: views carry chain.TxStatus directly.
	cor := chain.Submit(context.Background(), client, chain.SubmitTx{ID: "pay-coffee", Data: []byte("0.0042 BTC")})
	cor.OnUpdate(func(v correctables.View[chain.TxStatus]) {
		st := v.Value
		bar := ""
		for i := 0; i < st.Confirmations; i++ {
			bar += "#"
		}
		fmt.Printf("[%9v] %-6s %-6s confirmations: %d %s\n",
			sw.ElapsedModel().Round(time.Second), v.Level, state(v), st.Confirmations, bar)
	})
	final, err := cor.Final(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	// Deepening is not divergence: the strong view names the block the first
	// weak view did.
	if first := cor.Views()[0]; !final.Value.EqualValue(first.Value) {
		log.Fatalf("the transaction moved from block %d to block %d", first.Value.BlockHeight, final.Value.BlockHeight)
	}
	ledger.Stop()
	clock.Drain()
	fmt.Println("\nthe merchant could hand over the coffee at 1 confirmation (weak view)")
	fmt.Println("and reconcile at 6 (strong view) — speculation over incremental trust.")
}

func state(v correctables.View[chain.TxStatus]) string {
	if v.Final {
		return "FINAL"
	}
	return "update"
}
