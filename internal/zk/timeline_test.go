package zk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"correctables/internal/binding"
	"correctables/internal/faults"
	"correctables/internal/netsim"
)

// timelineDigest pins the election timeline of the corpus below.
const timelineDigest = "7832d2a55a19f1fb6da7cceceed07abc86a9a3192bc7cc9f4b58c753eaf0e34c"

// timelineWorld runs one ensemble under faults.Random over its own regions
// (40 s horizon: partitions, crashes, latency spikes and drops) with one
// client per region looping enqueue/dequeue through the client library, and
// returns its timeline: every change of a server's role or of the commit
// epoch, sampled each millisecond of model time, then the election log, then
// each client's operation outcomes. edges counts the role changes the
// samples show, keyed "from->to". On the way it checks election safety
// without hashing it: no two servers lead one epoch at any sample, and the
// log's epochs strictly increase, so no epoch is won twice, and after
// Quiesce every server has heard of the log's last leader.
func timelineWorld(t *testing.T, seed int64, regions []netsim.Region, edges map[string]int) []byte {
	t.Helper()
	const horizon = 40 * time.Second
	clock := netsim.NewVirtualClock()
	tr := netsim.NewTransport(clock, netsim.DefaultLatencies(), netsim.NewMeter(), seed)
	inj := faults.Attach(tr, faults.Random(seed, faults.Profile{
		Regions: regions, Horizon: horizon, MeanGap: 3 * time.Second, MeanDuration: 3 * time.Second,
		PartitionW: 1, CrashW: 1, SpikeW: 1, DropW: 1,
	}), seed)
	e, err := NewEnsemble(Config{
		Regions:      regions,
		LeaderRegion: regions[0],
		Transport:    tr,
		Correctable:  true,
		ServiceTime:  100 * time.Microsecond,
		OpTimeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Bootstrap(CreateTxn{Path: "/queues"})
	e.Bootstrap(CreateTxn{Path: "/queues/q"})

	var out strings.Builder
	roles := make([]string, len(regions))
	var epoch uint64
	stop, violated := false, false
	var sample func()
	sample = func() {
		if stop {
			return
		}
		now := clock.Now()
		for i, r := range regions {
			if got := e.Server(r).Role(); got != roles[i] {
				if roles[i] != "" {
					edges[roles[i]+"->"+got]++
				}
				roles[i] = got
				fmt.Fprintf(&out, "%d %s %s\n", now, r, got)
			}
		}
		if got := e.CommitEpoch(); got != epoch {
			epoch = got
			fmt.Fprintf(&out, "%d epoch %d\n", now, got)
		}
		if a, b, ep := twoLeadersInOneEpoch(e); a != "" && !violated {
			violated = true // report a world's first violation only
			t.Errorf("world %d/%d at %v: %s and %s both lead epoch %d", seed, len(regions), now, a, b, ep)
		}
		clock.RunAfter(time.Millisecond, sample)
	}
	sample()

	logs := make([]strings.Builder, len(regions))
	g := clock.NewGroup()
	for i, r := range regions {
		c := binding.NewClient(NewBinding(NewQueueClient(e, r, r)))
		log := &logs[i]
		g.Add(1)
		clock.Go(func() {
			defer g.Done()
			for n := 0; clock.Now() < horizon; n++ {
				var op binding.OperationFor[binding.Item] = binding.Dequeue{Queue: "q"}
				if n%2 == 0 {
					op = binding.Enqueue{Queue: "q", Item: []byte{byte(n)}}
				}
				views, err := invoke(c, op)
				fmt.Fprintf(log, "%d %s %s views=%d", clock.Now(), r, op.OpName(), len(views))
				if err != nil {
					fmt.Fprintf(log, " err=%v\n", err)
				} else {
					fmt.Fprintf(log, " final=%s\n", views[len(views)-1].Value.ID)
				}
				clock.Sleep(50 * time.Millisecond)
			}
		})
	}
	g.Wait()
	stop = true
	inj.Quiesce()
	clock.Drain()

	var prev uint64 // the initial leader's epoch
	for _, rec := range e.Elections() {
		if rec.Epoch <= prev {
			t.Errorf("world %d/%d: %s won epoch %d after epoch %d was won", seed, len(regions), rec.Leader, rec.Epoch, prev)
		}
		prev = rec.Epoch
		fmt.Fprintf(&out, "elected %d %s %d\n", rec.Epoch, rec.Leader, rec.At)
	}
	last := regions[0]
	if recs := e.Elections(); len(recs) > 0 {
		last = recs[len(recs)-1].Leader
	}
	for _, r := range regions {
		if heard, ep := e.Server(r).heardOf(); heard == nil || heard.Region != last {
			t.Errorf("world %d/%d: after Quiesce %s has heard of %s in epoch %d, want the last leader %s", seed, len(regions), r, nameOf(heard), ep, last)
		}
	}
	for i := range logs {
		out.WriteString(logs[i].String())
	}
	return []byte(out.String())
}

// twoLeadersInOneEpoch returns two servers that hold the leader role in the
// same election epoch, and the epoch; empty regions when there are none.
func twoLeadersInOneEpoch(e *Ensemble) (netsim.Region, netsim.Region, uint64) {
	e.elect.mu.Lock()
	defer e.elect.mu.Unlock()
	for i, a := range e.order {
		sa := &e.servers[a].election
		if sa.role != roleLeader {
			continue
		}
		for _, b := range e.order[i+1:] {
			if sb := &e.servers[b].election; sb.role == roleLeader && sb.epoch == sa.epoch {
				return a, b, sa.epoch
			}
		}
	}
	return "", "", 0
}

// TestElectionTimelineGolden is the refactor oracle of the election: 32
// seeds of a 3-server and a 5-server ensemble under random faults, every
// role and commit-epoch change, the election log and every client-visible
// outcome, pinned as one sha256. A change that moves no election event
// leaves it alone. The corpus must also take every role change the state
// machine has an edge for, or it pins less than it claims to.
func TestElectionTimelineGolden(t *testing.T) {
	ensembles := [][]netsim.Region{
		{netsim.FRK, netsim.IRL, netsim.VRG},
		{netsim.FRK, netsim.IRL, netsim.VRG, netsim.NCA, netsim.ORE},
	}
	edges := map[string]int{}
	h := sha256.New()
	var all []byte
	for seed := int64(1); seed <= 32; seed++ {
		for _, regions := range ensembles {
			got := timelineWorld(t, seed, regions, edges)
			fmt.Fprintf(h, "world %d/%d\n", seed, len(regions))
			h.Write(got)
			all = fmt.Appendf(all, "world %d/%d\n%s", seed, len(regions), got)
		}
	}
	t.Logf("role changes sampled: %v", edges)
	for _, edge := range []string{"follower->candidate", "candidate->follower", "candidate->leader", "leader->follower", "leader->candidate"} {
		if edges[edge] == 0 {
			t.Errorf("the corpus never takes %s", edge)
		}
	}
	if digest := hex.EncodeToString(h.Sum(nil)); digest != timelineDigest {
		dir, err := os.MkdirTemp("", "icg-timeline-")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "timeline.txt")
		if err := os.WriteFile(path, all, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("election timeline moved:\n  want sha256 %s\n  got  sha256 %s\n  got bytes kept in %s", timelineDigest, digest, path)
	}
}
