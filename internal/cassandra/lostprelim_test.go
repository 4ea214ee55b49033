package cassandra

import (
	"context"
	"runtime"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
)

// dropReplies is a netsim.Interceptor that loses the first n client-link
// messages from the coordinator to the client and delivers everything else.
// The preliminary flush leaves before the final response, so n = 1 destroys
// exactly the preliminary.
type dropReplies struct {
	coord, client netsim.Region
	n             int
}

func (d *dropReplies) Intercept(from, to netsim.Region, class string) (netsim.Verdict, float64) {
	if d.n > 0 && from == d.coord && to == d.client && class == netsim.LinkClient {
		d.n--
		return netsim.VerdictDrop, 1
	}
	return netsim.VerdictDeliver, 1
}

func (d *dropReplies) Changed() *netsim.Event { return nil } // it never stalls

// waitGoroutines polls until the goroutine count is back at base: retired
// workers have been woken by the time Drain returns but may not have run to
// their exit yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d still running after Drain, %d before the world", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLostPreliminaryCostsOnlyThePreliminary: a fault that destroys the
// fire-and-forget preliminary flush must cost the read that one view and
// nothing else. The final is already at the client; were it withheld behind
// an event only the lost message's callback can fire, the read would time
// out with ErrUnreachable and its record would stay parked for good. Single
// and coalesced reads share the idiom (netsim.AwaitFlush and the record's
// twin of it).
func TestLostPreliminaryCostsOnlyThePreliminary(t *testing.T) {
	const client, coord = netsim.IRL, netsim.FRK
	sites := []struct {
		name string
		// read issues one R=2 incremental read of "k" and returns the levels
		// of the views it delivered, in order.
		read func(cluster *Cluster, clock netsim.Clock) ([]core.Level, error)
	}{
		{"read", func(cluster *Cluster, _ netsim.Clock) (levels []core.Level, err error) {
			cor := NewKV(NewBinding(NewClient(cluster, client, coord), BindingConfig{})).Get(context.Background(), "k")
			_, err = cor.Final(context.Background())
			for _, v := range cor.Views() {
				levels = append(levels, v.Level)
			}
			return levels, err
		}},
		{"batched", func(cluster *Cluster, clock netsim.Clock) (levels []core.Level, err error) {
			b := NewBinding(NewClient(cluster, client, coord), BindingConfig{})
			entries := []binding.BatchEntry{{
				Op:     binding.Get{Key: "k"},
				Levels: core.Levels{core.LevelWeak, core.LevelStrong},
				Cb: func(r binding.Result) {
					if r.Err != nil {
						err = r.Err
					}
					levels = append(levels, r.Level)
				},
			}}
			done := clock.NewEvent()
			b.SubmitBatch(cluster.ShardOf("k"), entries, func([]binding.BatchEntry) { done.Fire() })
			done.Wait()
			return levels, err
		}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			run := func(lose int) ([]core.Level, time.Duration) {
				cluster, _, clock := newTestCluster(t, true, true)
				cluster.Preload("k", []byte("v"))
				// An interceptor on both runs, so the library bounds both
				// with the cluster's OpTimeout.
				cluster.tr.SetInterceptor(&dropReplies{coord: coord, client: client, n: lose})
				start := clock.Now()
				levels, err := site.read(cluster, clock)
				took := clock.Now() - start
				if err != nil {
					t.Fatalf("%d preliminaries lost: read failed: %v", lose, err)
				}
				clock.Drain()
				if n := clock.Parked(); n != 0 {
					t.Errorf("%d preliminaries lost: %d actors still parked after Drain", lose, n)
				}
				return levels, took
			}
			levels, unfaulted := run(0)
			if len(levels) != 2 || levels[0] != core.LevelWeak || levels[1] != core.LevelStrong {
				t.Fatalf("unfaulted read delivered %v, want weak then strong", levels)
			}
			levels, faulted := run(1)
			if len(levels) != 1 || levels[0] != core.LevelStrong {
				t.Errorf("read that lost its preliminary delivered %v, want the final alone", levels)
			}
			rtt := netsim.DefaultLatencies().RTT(client, coord)
			if faulted > unfaulted+rtt {
				t.Errorf("read that lost its preliminary took %v, unfaulted %v: more than a round trip (%v) apart",
					faulted, unfaulted, rtt)
			}
			waitGoroutines(t, base)
		})
	}
}
