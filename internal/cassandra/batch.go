package cassandra

import (
	"fmt"
	"time"

	"correctables/internal/binding"
	"correctables/internal/core"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Coordinator batching (store side): the Binding implements
// binding.BatchBinding, so a binding.Batcher stacked on top coalesces
// same-shard gets from many sessions into one coordinated round. The
// dispatch queue is per shard, which makes the batch path token-aware by
// construction — every dispatch addresses the key range's owner-shard
// coordinator directly, with all keys in one client-link message — and the
// coordinator amortizes its work across the batch: per-operation service
// slots are reserved up front and the round blocks once on the latest
// deadline instead of sleeping per operation.

// BatchShards implements binding.BatchBinding: one dispatch queue per
// cluster shard.
func (b *Binding) BatchShards() int { return b.client.cluster.Shards() }

// BatchKey implements binding.BatchBinding. Only gets batch, and only on a
// fault-free Correctable cluster: the coalesced round is the server-side
// ICG of §5.2 spread over a batch, while under fault injection operations
// take the direct per-op path so each keeps its own deadline machinery.
func (b *Binding) BatchKey(op binding.Operation) (int, bool) {
	g, ok := op.(binding.Get)
	if !ok {
		return 0, false
	}
	cl := b.client.cluster
	if !cl.cfg.Correctable || cl.tr.Interceptor() != nil {
		return 0, false
	}
	return cl.ShardOf(g.Key), true
}

var _ binding.BatchBinding = (*Binding)(nil)

// SubmitBatch implements binding.BatchBinding. It runs in timer-callback
// context, so the protocol round is an actor.
func (b *Binding) SubmitBatch(shard int, entries []binding.BatchEntry, done func([]binding.BatchEntry)) {
	b.clock().Go(func() {
		b.readBatch(shard, entries)
		done(entries)
	})
}

// batchItem is the per-operation state of one coalesced round.
type batchItem struct {
	e          *binding.BatchEntry
	key        string
	wantWeak   bool
	wantStrong bool
	local      Versioned
	reconciled Versioned
}

// readBatch serves one coalesced dispatch: a single client→coordinator
// message carrying every key, one amortized coordinator round (local reads
// plus preliminary flush work), a batched preliminary response, one quorum
// leg per peer covering all strong items, and a batched final response.
// Per-entry views preserve the unbatched semantics — weak views first,
// LWW-reconciled strong views second, confirmation shrinking per item.
func (b *Binding) readBatch(shard int, entries []binding.BatchEntry) {
	c := b.client
	cl := c.cluster
	cfg := &cl.cfg
	tr := cl.tr
	clock := tr.Clock()
	coord := cl.replicas[c.Coordinator][shard]

	items := make([]batchItem, 0, len(entries))
	reqSize := 0
	for i := range entries {
		e := &entries[i]
		g := e.Op.(binding.Get)
		wantWeak := e.Levels.Contains(core.LevelWeak)
		wantStrong := e.Levels.Contains(core.LevelStrong)
		if !wantWeak && !wantStrong {
			e.Cb(binding.Result{Err: fmt.Errorf("%w: %v", binding.ErrUnsupportedLevel, e.Levels)})
			continue
		}
		items = append(items, batchItem{e: e, key: g.Key, wantWeak: wantWeak, wantStrong: wantStrong})
		reqSize += readRequestSize(g.Key)
	}
	if len(items) == 0 {
		return
	}

	// One coalesced request to the owner-shard coordinator.
	tr.Travel(c.Region, c.Coordinator, netsim.LinkClient, reqSize)

	var batchSp trace.SpanID
	if trc := cl.trc; trc != nil {
		batchSp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatBatch, "batch-read",
			fmt.Sprintf("%d ops", len(items)), clock.Now())
	}

	// Amortized coordinator round: every operation reserves its service
	// slots (local read, plus flush work for items leaking a preliminary),
	// then the batch blocks once on the latest completion.
	var latest time.Duration
	for i := range items {
		cost := cfg.ReadServiceTime
		if items[i].wantWeak && items[i].wantStrong {
			cost += cfg.FlushServiceTime
		}
		if end := coord.server.Reserve(cost); end > latest {
			latest = end
		}
	}
	clock.SleepUntil(latest)
	for i := range items {
		items[i].local = coord.tab.get(items[i].key)
		items[i].reconciled = items[i].local
	}

	// Batched preliminary flush: one client-link message carries every weak
	// view; delivery emits them in entry order.
	prelimSize := 0
	for i := range items {
		if items[i].wantWeak {
			prelimSize += readResponseSize(items[i].local.Value)
		}
	}
	var prelimDelivered *netsim.Event
	prelimLeft := false
	if prelimSize > 0 {
		prelimDelivered = clock.NewEvent()
		prelimLeft = tr.Send(c.Coordinator, c.Region, netsim.LinkClient, prelimSize, func() {
			for i := range items {
				it := &items[i]
				if !it.wantWeak {
					continue
				}
				it.e.Cb(binding.Result{
					Value:   it.local.Value,
					Level:   core.LevelWeak,
					Version: it.local.Token(),
				})
			}
			prelimDelivered.Fire()
		})
	}

	// Quorum gathering: one leg per peer covers every strong item, with the
	// peer's per-item service slots reserved and slept on once.
	strong := strongItems(items)
	if need := b.cfg.StrongQuorum - 1; len(strong) > 0 && need > 0 {
		var quorumSp trace.SpanID
		if trc := cl.trc; trc != nil {
			quorumSp = trc.Begin(cl.phaseTrk[c.Coordinator], trace.CatQuorum, "batch-quorum",
				fmt.Sprintf("%d ops", len(strong)), clock.Now())
		}
		g := cl.getGather(c, shard, "")
		g.items, g.strong = items, strong
		for k := range g.legs[:need] {
			g.legs[k].readBatch()
		}
		for range need {
			vs := g.legs[g.arrived.Get().(int)].replies
			for j, i := range strong {
				if vs[j].Newer(items[i].reconciled) {
					items[i].reconciled = vs[j]
				}
			}
		}
		cl.putGather(g)
		cl.trc.End(quorumSp, clock.Now())
		for _, i := range strong {
			it := &items[i]
			// Blocking read repair among participants, then the sampled
			// global repair — both exactly as in the unbatched read.
			if it.reconciled.Newer(it.local) {
				coord.tab.apply(it.key, it.reconciled)
			}
			if cl.rollReadRepair(it.key) {
				if trc := cl.trc; trc != nil {
					trc.Instant(cl.phaseTrk[c.Coordinator], "read-repair", it.key, clock.Now())
				}
				c.repairAsync(shard, it.key, it.reconciled)
			}
		}
	}

	// Batched final response: matching finals shrink to confirmations per
	// item when the optimization is on.
	if len(strong) > 0 {
		respSize := 0
		for _, i := range strong {
			it := &items[i]
			sz := readResponseSize(it.reconciled.Value)
			if it.wantWeak && cfg.ConfirmationOpt && it.reconciled.Same(it.local) {
				sz = ConfirmationSize
			}
			respSize += sz
		}
		tr.Travel(c.Coordinator, c.Region, netsim.LinkClient, respSize)
	}
	cl.trc.End(batchSp, clock.Now())
	netsim.AwaitFlush(prelimDelivered, prelimLeft) // preserve per-entry view order
	for _, i := range strong {
		it := &items[i]
		it.e.Cb(binding.Result{
			Value:   it.reconciled.Value,
			Level:   core.LevelStrong,
			Version: it.reconciled.Token(),
		})
	}
}

// batchLeg is a peerLeg on a coalesced read: one round trip covers every
// strong item of the batch, with the peer's per-item service slots reserved
// together and waited on once.
type batchLeg peerLeg

func (l *peerLeg) readBatch() {
	g := l.g
	req := 0
	for _, i := range g.strong {
		req += replicaReadRequestSize(g.items[i].key)
	}
	l.start((*batchLeg)(l), req, g.c.cluster.cfg.ReadServiceTime)
}

func (l *batchLeg) Serve() int {
	g := l.g
	resp := 0
	for _, i := range g.strong {
		v := l.replica.tab.get(g.items[i].key)
		l.replies = append(l.replies, v)
		resp += replicaReadResponseSize(v.Value)
	}
	return resp
}

func (l *batchLeg) Done() { l.g.arrived.Put(l.slot) }

// strongItems lists the item indexes that need a quorum-reconciled view.
func strongItems(items []batchItem) []int {
	idx := make([]int, 0, len(items))
	for i := range items {
		if items[i].wantStrong {
			idx = append(idx, i)
		}
	}
	return idx
}
