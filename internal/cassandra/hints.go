package cassandra

import (
	"sync"
	"sync/atomic"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Hinted handoff: when asynchronous write propagation targets a replica the
// coordinator currently cannot reach (crashed or partitioned away), the
// mutation is buffered as a hint on the coordinator instead of being lost
// in flight. Hints replay on the injector's next fault transition once the
// peer is reachable again — the rejoining replica receives the writes it
// missed directly, shrinking the stale window that read repair previously
// covered alone. Queues are bounded (drop-oldest) and hints carry a TTL,
// exactly like Cassandra's max_hint_window: a replica that stays down
// longer than hintTTL rejoins stale and heals through read repair as
// before.
//
// Only the asynchronous replication leg is hinted. Synchronous quorum legs
// keep their stall-until-heal semantics: a write that needs the down
// replica for its quorum still blocks (and fails via OpTimeout), because a
// hint is not an acknowledgment.

const (
	// hintTTL bounds how long a coordinator keeps hints for an unreachable
	// peer.
	hintTTL = 30 * time.Second
	// maxHintsPerPeer caps each coordinator's per-peer hint queue,
	// drop-oldest.
	maxHintsPerPeer = 128
)

// hint is one buffered mutation, tagged with the owner shard it replays to.
type hint struct {
	shard   int
	key     string
	v       Versioned
	expires time.Duration
}

// HintStats counts hinted-handoff activity since cluster construction.
type HintStats struct {
	// Queued hints buffered in place of doomed async replication sends.
	Queued int
	// Replayed hints delivered to their peer after it became reachable.
	Replayed int
	// Expired hints discarded at replay time because they outlived hintTTL.
	Expired int
	// Dropped hints evicted (oldest first) by the maxHintsPerPeer cap.
	Dropped int
}

// hintStore is the per-cluster hint state; inert (inj == nil) on fault-free
// transports.
type hintStore struct {
	inj *faults.Injector

	mu    sync.Mutex
	byCo  map[netsim.Region]map[netsim.Region][]hint
	stats HintStats
}

// wireHints subscribes hint replay to fault transitions (replica restarts,
// partition heals, the final quiesce).
func (c *Cluster) wireHints() {
	inj, ok := c.tr.Interceptor().(*faults.Injector)
	if !ok {
		return
	}
	c.hints.inj = inj
	c.hints.byCo = make(map[netsim.Region]map[netsim.Region][]hint)
	inj.Subscribe(func(faults.Transition) { c.replayHints() })
}

// hintable reports whether a coordinator should buffer (rather than send)
// an async mutation for peer right now.
func (c *Cluster) hintable(coord, peer netsim.Region) bool {
	return c.hints.inj != nil && !c.hints.inj.Reachable(coord, peer)
}

// bufferHint queues a mutation for an unreachable peer, evicting the oldest
// hint past the per-peer cap.
func (c *Cluster) bufferHint(coord, peer netsim.Region, shard int, key string, v Versioned) {
	h := &c.hints
	now := c.tr.Clock().Now()
	h.mu.Lock()
	peers := h.byCo[coord]
	if peers == nil {
		peers = make(map[netsim.Region][]hint)
		h.byCo[coord] = peers
	}
	q := peers[peer]
	if len(q) >= maxHintsPerPeer {
		q = q[1:]
		h.stats.Dropped++
	}
	peers[peer] = append(q, hint{shard: shard, key: key, v: v, expires: now + hintTTL})
	h.stats.Queued++
	h.mu.Unlock()
	if c.trc != nil {
		c.trc.Instant(c.phaseTrk[coord], "hint-queued", key, now)
	}
}

// replayHints flushes every hint queue whose peer is reachable again,
// expiring hints lazily. Runs in clock-callback context (fault
// transitions): the deliveries are asynchronous sends, and iteration is in
// declaration order for determinism.
func (c *Cluster) replayHints() {
	h := &c.hints
	now := c.tr.Clock().Now()
	type flush struct {
		coord, peer netsim.Region
		hints       []hint
	}
	var flushes []flush
	h.mu.Lock()
	for _, coord := range c.order {
		peers := h.byCo[coord]
		if peers == nil {
			continue
		}
		for _, peer := range c.order {
			q := peers[peer]
			if len(q) == 0 || !h.inj.Reachable(coord, peer) {
				continue
			}
			live := make([]hint, 0, len(q))
			for _, hn := range q {
				if hn.expires < now {
					h.stats.Expired++
					continue
				}
				live = append(live, hn)
			}
			h.stats.Replayed += len(live)
			delete(peers, peer)
			if len(live) > 0 {
				flushes = append(flushes, flush{coord: coord, peer: peer, hints: live})
			}
		}
	}
	h.mu.Unlock()

	for _, f := range flushes {
		reps := c.replicas[f.peer]
		// The replay span covers the flush burst until its last delivery;
		// deliveries are async sends, so the end instant is the latest
		// scheduled arrival rather than a blocking wait.
		var replaySp trace.SpanID
		var remaining atomic.Int64
		if c.trc != nil {
			replaySp = c.trc.Begin(c.phaseTrk[f.coord], trace.CatHint, "hint-replay", string(f.peer), now)
		}
		remaining.Store(int64(len(f.hints)))
		for _, hn := range f.hints {
			hn := hn
			c.tr.Send(f.coord, f.peer, netsim.LinkReplica,
				replicationSize(hn.key, hn.v.Bytes()), func() {
					reps[hn.shard].tab.apply(hn.key, hn.v)
					if remaining.Add(-1) == 0 {
						c.trc.End(replaySp, c.tr.Clock().Now())
					}
				})
		}
	}
}

// HintStats returns a snapshot of hinted-handoff counters.
func (c *Cluster) HintStats() HintStats {
	c.hints.mu.Lock()
	defer c.hints.mu.Unlock()
	return c.hints.stats
}
