package bench

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"correctables/internal/apps/adserver"
	"correctables/internal/apps/tickets"
	"correctables/internal/binding"
	"correctables/internal/cassandra"
	"correctables/internal/netsim"
	"correctables/internal/zk"
)

// fig11Misspeculation runs Fig 11's quick ads world with writers: three
// IRL readers fetch speculatively through FRK while three writer loops
// rewrite profiles through writerCoord, for 2 s of model time. It returns
// the completed reads and how many of them misspeculated, as the app
// reports it (core.TimingOf over the reference list's views).
func fig11Misspeculation(writerCoord netsim.Region) (reads, misspeculated int64) {
	cfg := quickCfg()
	h := newWorld(cfg, nil, 2*time.Second)
	cluster := h.newCassandra(cfg, cassandraOpts{correctable: true, confirmOpt: true})
	data := adserver.LoadOptions{Profiles: 60, Ads: 300, MaxRefs: 4, AdBodySize: 200, Seed: cfg.Seed}
	adserver.Load(cluster, data)
	service := func(coord netsim.Region) *adserver.Service {
		return adserver.NewService(cassandra.NewBinding(cassandra.NewClient(cluster, netsim.IRL, coord), cassandra.BindingConfig{}))
	}
	readers, writers := service(netsim.FRK), service(writerCoord)
	ctx := context.Background()
	var n, diverged atomic.Int64
	for i := int64(0); i < 3; i++ {
		h.loop(cfg.Seed+i, 0, func(rng *rand.Rand) {
			out, err := readers.FetchAdsByUserID(ctx, rng.Intn(data.Profiles), true)
			if err != nil {
				return
			}
			n.Add(1)
			if out.Misspeculated {
				diverged.Add(1)
			}
		})
		h.loop(cfg.Seed+100+i, 0, func(rng *rand.Rand) {
			_, _ = writers.UpdateProfile(ctx, rng.Intn(data.Profiles), adserver.RandomRefs(rng, data))
		})
	}
	h.mustRun()
	return n.Load(), diverged.Load()
}

// TestFig11MisspeculationNeedsWriterInReadQuorum confirms ROADMAP item 12's
// account of Fig 11's zero misspeculation. The readers' preliminary is
// their FRK coordinator's own replica and their final the R=2 quorum of FRK
// and IRL, so a read misspeculates only inside the window in which a write
// has reached IRL but not FRK. Writers coordinated by IRL open that window
// for the whole replication lag and misspeculate reads; writers on FRK
// never open it (the preliminary already holds the write); writers on VRG
// open it only for the ~3 ms by which VRG's one-way latency to IRL beats
// its latency to FRK, so they misspeculate less than IRL's.
func TestFig11MisspeculationNeedsWriterInReadQuorum(t *testing.T) {
	var reads, misspec [3]int64
	for i, writers := range []netsim.Region{netsim.IRL, netsim.FRK, netsim.VRG} {
		reads[i], misspec[i] = fig11Misspeculation(writers)
		t.Logf("writers on %s: %d/%d reads misspeculated", writers, misspec[i], reads[i])
		if reads[i] == 0 {
			t.Fatalf("writers on %s: no read completed", writers)
		}
	}
	if misspec[0] == 0 {
		t.Errorf("writers on IRL: no read misspeculated")
	}
	if misspec[1] != 0 {
		t.Errorf("writers on FRK: %d reads misspeculated, want 0", misspec[1])
	}
	if misspec[2]*reads[0] >= misspec[0]*reads[2] {
		t.Errorf("writers on VRG misspeculate %d/%d reads, not fewer than IRL's %d/%d",
			misspec[2], reads[2], misspec[0], reads[0])
	}
}

// fig12Sale runs Fig 12's CZK world (leader IRL, a stock of 500) with one
// closed-loop retailer per contact region, each serving its next customer
// once the previous dequeue committed, as Fig12 does. It returns the
// tickets sold per ticket ID and the revocations the retailers counted.
func fig12Sale(contacts []netsim.Region) (sold map[string]int, revoked int) {
	cfg := quickCfg()
	h := newFabric(cfg)
	e := h.newZK(cfg, zkOpts{correctable: true, leader: netsim.IRL})
	tickets.Stock(e, "event", 500)
	sold = map[string]int{}
	for _, contact := range contacts {
		h.spawn(func() {
			r := tickets.NewRetailer(zk.NewBinding(zk.NewQueueClient(e, contact, contact)))
			for {
				res, err := r.PurchaseTicket(context.Background(), "event")
				if err != nil {
					return
				}
				if res.SoldOut {
					revoked += r.Revoked()
					return
				}
				if ticket, _ := res.Assigned.Get().(binding.Item); ticket.Exists {
					sold[ticket.ID]++
				}
			}
		})
	}
	h.mustRun()
	return sold, revoked
}

// TestFig12RevocationsAreStructurallyZero records ROADMAP item 12's Fig 12
// confirm test as refuted: moving the retailers' contacts off the shared
// FRK follower does not produce revocations. PurchaseTicket revokes only a
// confirmation whose preliminary showed more than Threshold (20) tickets
// left and whose final found none, and each retailer waits for its
// committed dequeue before the next customer, so at most four dequeues are
// ever in flight: the preliminary can never be 20 tickets wrong.
func TestFig12RevocationsAreStructurallyZero(t *testing.T) {
	for _, contacts := range [][]netsim.Region{
		{netsim.FRK, netsim.FRK, netsim.FRK, netsim.FRK},
		{netsim.FRK, netsim.FRK, netsim.IRL, netsim.VRG},
		{netsim.IRL, netsim.VRG, netsim.FRK, netsim.VRG},
	} {
		sold, revoked := fig12Sale(contacts)
		twice := 0
		for _, n := range sold {
			if n > 1 {
				twice++
			}
		}
		t.Logf("contacts %v: %d tickets sold, %d twice, %d revoked", contacts, len(sold), twice, revoked)
		if len(sold) != 500 || twice != 0 || revoked != 0 {
			t.Errorf("contacts %v: %d tickets sold (want 500), %d sold twice, %d revoked (want 0, 0)",
				contacts, len(sold), twice, revoked)
		}
	}
}
