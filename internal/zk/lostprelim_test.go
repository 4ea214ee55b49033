package zk

import (
	"runtime"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// dropReplies is a netsim.Interceptor that loses the first n client-link
// messages from the contact server to the client and delivers everything
// else. The preliminary leaves before the committed response, so n = 1
// destroys exactly the preliminary.
type dropReplies struct {
	contact, client netsim.Region
	n               int
}

func (d *dropReplies) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if d.n > 0 && from == d.contact && to == d.client && class == netsim.LinkClient {
		d.n--
		return netsim.VerdictDrop, 1
	}
	return netsim.VerdictDeliver, 1
}

func (d *dropReplies) Changed() *netsim.Event { return nil } // it never stalls

// TestLostPreliminaryCostsOnlyThePreliminary: a fault that destroys the
// fire-and-forget preliminary of a CZK enqueue or dequeue must cost the
// operation that one view and nothing else. Were the committed view,
// already at the client, withheld behind an event only the lost message's
// callback can fire, the operation would time out with ErrUnreachable and
// its record would stay parked for good (opRecord.replied).
func TestLostPreliminaryCostsOnlyThePreliminary(t *testing.T) {
	// A follower contact (the leader is FRK) and a client in a third region,
	// so the link direction tells the contact's replies from the requests.
	const client, contact = netsim.VRG, netsim.IRL
	sites := []struct {
		name string
		op   binding.OperationFor[binding.Item]
	}{
		{"enqueue", binding.Enqueue{Queue: "q", Item: []byte("x")}},
		{"dequeue", binding.Dequeue{Queue: "q"}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			run := func(lose int) ([]core.Level, time.Duration) {
				e, _, clock := newTestEnsemble(t, true, netsim.FRK)
				qc := NewQueueClient(e, client, contact)
				if err := qc.CreateQueue("q"); err != nil {
					t.Fatal(err)
				}
				if err := qc.Enqueue("q", []byte("seed"), false, func(QueueView) {}); err != nil {
					t.Fatal(err)
				}
				// An interceptor on both runs, so the library bounds both
				// with the ensemble's OpTimeout.
				e.tr.SetInterceptor(&dropReplies{contact: contact, client: client, n: lose})
				start := clock.Now()
				views, err := invoke(binding.NewClient(NewBinding(qc)), site.op)
				took := clock.Now() - start
				if err != nil {
					t.Fatalf("%d preliminaries lost: %s failed: %v", lose, site.name, err)
				}
				var levels []core.Level
				for _, v := range views {
					levels = append(levels, v.Level)
				}
				clock.Drain()
				if n := clock.Parked(); n != 0 {
					t.Errorf("%d preliminaries lost: %d actors still parked after Drain", lose, n)
				}
				return levels, took
			}
			levels, unfaulted := run(0)
			if len(levels) != 2 || levels[0] != core.LevelWeak || levels[1] != core.LevelStrong {
				t.Fatalf("unfaulted %s delivered %v, want weak then strong", site.name, levels)
			}
			levels, faulted := run(1)
			if len(levels) != 1 || levels[0] != core.LevelStrong {
				t.Errorf("%s that lost its preliminary delivered %v, want the final alone", site.name, levels)
			}
			rtt := netsim.DefaultLatencies().RTT(client, contact)
			if faulted > unfaulted+rtt {
				t.Errorf("%s that lost its preliminary took %v, unfaulted %v: more than a round trip (%v) apart",
					site.name, faulted, unfaulted, rtt)
			}
			// Retired workers have been woken by the time Drain returns but may
			// not have run to their exit yet.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d still running after Drain, %d before the world", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
