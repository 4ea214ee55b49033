// Package chain implements the blockchain use case of §4.5: a simulated
// proof-of-work ledger in which a Correctable tracks a transaction's
// confirmations as they accumulate. Each new block containing (or burying)
// the transaction yields a preliminary view; once the transaction is K
// blocks deep it is irrevocable with high probability — "strongly
// consistent" — and the Correctable closes.
//
// The paper implemented this binding but omitted it for space; it is the
// canonical demonstration that Correctables support arbitrarily many views
// (more than the two levels of the Cassandra and ZooKeeper bindings)
// without any interface change.
package chain

import (
	"fmt"
	randv2 "math/rand/v2"
	"strconv"
	"sync"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
	"correctables/internal/trace"
)

// Tx is a submitted transaction.
type Tx struct {
	ID   string
	Data []byte
}

// TxStatus is the view value delivered for a pending transaction.
type TxStatus struct {
	TxID string
	// Confirmations is the transaction's depth: 0 while in the mempool,
	// 1 when first included in a block, and so on.
	Confirmations int
	// BlockHeight is the height of the including block (0 while pending).
	BlockHeight int
}

// EqualValue implements core-style equality: two statuses refer to the same
// outcome if the transaction landed in the same block. Confirmation counts
// are monotone bookkeeping, not divergence.
func (s TxStatus) EqualValue(other interface{}) bool {
	o, ok := other.(TxStatus)
	return ok && s.TxID == o.TxID && s.BlockHeight == o.BlockHeight
}

// Block is one ledger block.
type Block struct {
	Height int
	TxIDs  []string
	// txs retains the swept transaction bodies so a reorg can return them
	// to the mempool.
	txs []Tx
}

// Config describes a simulated chain.
type Config struct {
	// Transport provides the clock (required).
	Transport *netsim.Transport
	// BlockInterval is the mean time between blocks (default 10s model
	// time; Bitcoin's is 10 minutes — scaled down so experiments are
	// feasible, the shape is identical).
	BlockInterval time.Duration
	// Jitter is the +/- fraction of randomness on block intervals
	// (default 0.5; block arrival is memoryless in reality).
	Jitter float64
	// MinerRegion locates the (single, simulated) miner: when a fault
	// schedule crashes the region, block production pauses until its
	// restart, so tracked transactions see a stalled final view. This is
	// deliberately not bounded by an OpTimeout — confirmations take
	// arbitrarily long by nature (§4.5) — so consumers that must not wait
	// out an unbounded outage should pass a cancellable context to
	// SubmitOperation. Empty leaves mining unaffected by faults.
	MinerRegion netsim.Region
	// MinerRegions locates up to two competing miners; it overrides
	// MinerRegion when set. The first region is the primary miner, which
	// produces the canonical chain exactly as a sole MinerRegion would. A
	// second region is a competing miner: while a partition severs the two
	// (both alive), the secondary extends its own branch from the fork
	// point, and when the partition heals the longest branch wins — a tie
	// keeps the primary's. Transactions gossip on the primary's side (the
	// client-facing partition), so the secondary's branch is empty: a reorg
	// orphans the primary's post-fork blocks, returns their transactions to
	// the mempool, and replays the winning blocks to watchers after a Reorg
	// sentinel.
	MinerRegions []netsim.Region
	// Seed fixes the block-timing RNG.
	Seed int64
}

// Reorg is delivered to watchers (before the winning branch's blocks) when
// a healed fork resolves against the branch the watchers had been shown:
// every block above ForkHeight is orphaned and its transactions re-enter
// the mempool. Consumers tracking a transaction included above ForkHeight
// must treat it as unconfirmed again — the one place the chain model
// permits a confirmation (and version-token) regression.
type Reorg struct {
	// ForkHeight is the height of the last common block: blocks above it
	// were replaced.
	ForkHeight int
	// Orphaned lists the transaction IDs returned to the mempool, in
	// orphaned-block order.
	Orphaned []string
}

// Chain is the simulated ledger. Blocks are mined by a self-rescheduling
// callback timer (no background goroutine) until Stop is called. Stop the
// chain before draining a VirtualClock, or the armed mining timer keeps
// the simulation alive forever.
type Chain struct {
	cfg    Config
	clock  netsim.Clock
	inj    *faults.Injector // nil without fault injection
	miners []netsim.Region  // normalized MinerRegions; miners[0] is primary

	mu       sync.Mutex
	rng      *randv2.Rand
	mempool  []Tx
	blocks   []Block
	watchers []*netsim.Queue
	stopped  bool

	// Per-miner crash state, maintained by the injector's OnDown/OnUp
	// notifications (not polled).
	downM map[netsim.Region]bool

	// Fork state: while forked, the secondary miner extends branch from
	// forkHeight on its own timer (branchRNG keeps its intervals off the
	// primary's stream). forkGen invalidates stale branch timers across
	// fork begin/resolve cycles.
	branchRNG  *randv2.Rand
	forked     bool
	forkGen    int
	forkHeight int
	branch     []Block
	reorgs     []Reorg

	// trc, when set, records block production, fork windows, and reorgs
	// as instants on one "chain" track. Nil = tracing off.
	trc *trace.Tracer
	trk trace.Track
}

// New starts a chain per cfg.
func New(cfg Config) (*Chain, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("chain: Config.Transport is required")
	}
	if cfg.BlockInterval == 0 {
		cfg.BlockInterval = 10 * time.Second
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.5
	}
	miners := cfg.MinerRegions
	if len(miners) == 0 && cfg.MinerRegion != "" {
		miners = []netsim.Region{cfg.MinerRegion}
	}
	if len(miners) > 2 {
		return nil, fmt.Errorf("chain: at most two miner regions, got %d", len(miners))
	}
	if len(miners) == 2 && miners[0] == miners[1] {
		return nil, fmt.Errorf("chain: duplicate miner region %s", miners[0])
	}
	c := &Chain{
		cfg:       cfg,
		clock:     cfg.Transport.Clock(),
		miners:    miners,
		rng:       randv2.New(randv2.NewPCG(uint64(cfg.Seed+11), 0xc4a1)),
		branchRNG: randv2.New(randv2.NewPCG(uint64(cfg.Seed+11), 0xc4a2)),
		downM:     make(map[netsim.Region]bool),
	}
	if len(miners) > 0 {
		if inj, ok := cfg.Transport.Interceptor().(*faults.Injector); ok {
			c.inj = inj
			for _, m := range miners {
				m := m
				c.downM[m] = inj.Down(m)
				inj.OnDown(m, func() { c.setMinerDown(m, true) })
				inj.OnUp(m, func() { c.setMinerDown(m, false) })
			}
			if len(miners) == 2 {
				inj.Subscribe(func(faults.Transition) { c.onTransition() })
			}
		}
	}
	c.scheduleNext()
	return c, nil
}

// SetTrace threads a span tracer through the chain: every mined block,
// fork open, and reorg appears as an instant on the "chain" track.
// Install at wiring time.
func (c *Chain) SetTrace(t *trace.Tracer) {
	c.trc = t
	c.trk = t.Track("chain")
}

func (c *Chain) setMinerDown(m netsim.Region, down bool) {
	c.mu.Lock()
	c.downM[m] = down
	c.mu.Unlock()
}

// stopSentinel is delivered to every watcher when the chain stops.
var stopSentinel = Block{Height: -1}

// Stop halts block production (effective at the next mining deadline) and
// delivers a stop sentinel to every watcher.
func (c *Chain) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	for _, w := range c.watchers {
		w.Put(stopSentinel)
	}
}

// Height returns the current chain height.
func (c *Chain) Height() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}

// Submit places a transaction in the mempool.
func (c *Chain) Submit(tx Tx) {
	c.mu.Lock()
	c.mempool = append(c.mempool, tx)
	c.mu.Unlock()
}

// Watch returns a queue receiving every newly mined block and a cancel
// function. A Block with Height < 0 signals that the chain stopped. The
// queue is unbounded, so slow consumers never stall mining.
func (c *Chain) Watch() (*netsim.Queue, func()) {
	q := c.clock.NewQueue()
	c.mu.Lock()
	if c.stopped {
		q.Put(stopSentinel)
	}
	c.watchers = append(c.watchers, q)
	c.mu.Unlock()
	cancel := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, w := range c.watchers {
			if w == q {
				c.watchers = append(c.watchers[:i], c.watchers[i+1:]...)
				return
			}
		}
	}
	return q, cancel
}

// ConfirmationsOf returns the depth of the block at the given height.
func (c *Chain) ConfirmationsOf(height int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if height <= 0 || height > len(c.blocks) {
		return 0
	}
	return len(c.blocks) - height + 1
}

// scheduleNext arms the next mining deadline as a callback timer: block
// production costs no goroutine, however long the chain runs.
func (c *Chain) scheduleNext() {
	c.clock.RunAfter(c.nextInterval(), c.mineOnce)
}

// mineOnce produces one block at its deadline, sweeping the mempool into
// it, and re-arms the timer — unless the chain stopped, in which case the
// fired timer simply expires without rescheduling. It runs as a clock
// callback and never blocks (watcher queues are unbounded; Put hands off
// without waiting).
func (c *Chain) mineOnce() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	// A crashed miner region produces no blocks: the tick re-arms without
	// mining until the region restarts (the mempool keeps accumulating,
	// like transactions waiting out an outage).
	if len(c.miners) > 0 && c.downM[c.miners[0]] {
		c.mu.Unlock()
		c.scheduleNext()
		return
	}
	blk := Block{Height: len(c.blocks) + 1, txs: c.mempool}
	for _, tx := range c.mempool {
		blk.TxIDs = append(blk.TxIDs, tx.ID)
	}
	c.mempool = nil
	c.blocks = append(c.blocks, blk)
	watchers := append([]*netsim.Queue(nil), c.watchers...)
	c.mu.Unlock()
	if c.trc != nil {
		c.trc.Instant(c.trk, "block", strconv.Itoa(blk.Height), c.clock.Now())
	}
	for _, w := range watchers {
		w.Put(blk)
	}
	c.scheduleNext()
}

func (c *Chain) nextInterval() time.Duration {
	c.mu.Lock()
	u := c.rng.Float64()*2 - 1
	c.mu.Unlock()
	return time.Duration(float64(c.cfg.BlockInterval) * (1 + c.cfg.Jitter*u))
}

// Reorgs returns every fork resolution that replaced canonical blocks, in
// order.
func (c *Chain) Reorgs() []Reorg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Reorg(nil), c.reorgs...)
}

// Forked reports whether a fork is currently open (the two miners are
// severed and both extending their own branch).
func (c *Chain) Forked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forked
}

// onTransition runs on every fault transition (after OnDown/OnUp updated
// the per-miner crash state): a partition that severs two live miners opens
// a fork; a transition that reconnects them resolves it.
func (c *Chain) onTransition() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	m0, m1 := c.miners[0], c.miners[1]
	reach := c.inj.Reachable(m0, m1)
	if !c.forked && !reach && !c.downM[m0] && !c.downM[m1] {
		// Two live miners can no longer hear each other: the secondary
		// starts extending its own branch from the current tip. (A severed
		// but crashed miner mines nothing and opens no fork; the fork opens
		// at the transition that revives it inside the partition.)
		c.forked = true
		c.forkGen++
		gen := c.forkGen
		c.forkHeight = len(c.blocks)
		forkHeight := c.forkHeight
		c.branch = nil
		c.mu.Unlock()
		if c.trc != nil {
			c.trc.Instant(c.trk, "fork", strconv.Itoa(forkHeight), c.clock.Now())
		}
		c.scheduleBranch(gen)
		return
	}
	if c.forked && reach {
		c.resolveForkLocked()
		return // resolveForkLocked unlocks
	}
	c.mu.Unlock()
}

// scheduleBranch arms the secondary miner's next deadline; its interval
// stream is independent of the primary's so fork mining never perturbs the
// canonical block times.
func (c *Chain) scheduleBranch(gen int) {
	c.mu.Lock()
	u := c.branchRNG.Float64()*2 - 1
	c.mu.Unlock()
	d := time.Duration(float64(c.cfg.BlockInterval) * (1 + c.cfg.Jitter*u))
	c.clock.RunAfter(d, func() { c.branchMineOnce(gen) })
}

// branchMineOnce extends the secondary branch (empty blocks: transactions
// gossip on the primary's side) and re-arms while the fork is open. A stale
// generation — the fork resolved, or a newer fork replaced it — expires
// without re-arming.
func (c *Chain) branchMineOnce(gen int) {
	c.mu.Lock()
	if c.stopped || !c.forked || gen != c.forkGen {
		c.mu.Unlock()
		return
	}
	if !c.downM[c.miners[1]] {
		c.branch = append(c.branch, Block{Height: c.forkHeight + len(c.branch) + 1})
	}
	c.mu.Unlock()
	c.scheduleBranch(gen)
}

// resolveForkLocked settles an open fork once the miners reconnect: the
// longer branch wins, ties keep the primary's. When the secondary wins,
// the primary's post-fork blocks are orphaned, their transactions return
// to the mempool (ahead of newer submissions), and watchers receive a
// Reorg sentinel followed by the winning blocks. Called with c.mu held;
// unlocks before delivering to watchers.
func (c *Chain) resolveForkLocked() {
	c.forked = false
	c.forkGen++
	branch := c.branch
	c.branch = nil
	if len(branch) <= len(c.blocks)-c.forkHeight {
		// The canonical chain is at least as long: the secondary's branch
		// is discarded, and nothing was visible to watchers anyway.
		c.mu.Unlock()
		return
	}
	orphaned := c.blocks[c.forkHeight:]
	c.blocks = append(c.blocks[:c.forkHeight:c.forkHeight], branch...)
	if c.trc != nil {
		c.trc.Instant(c.trk, "reorg", strconv.Itoa(c.forkHeight), c.clock.Now())
	}
	re := Reorg{ForkHeight: c.forkHeight}
	var pool []Tx
	for _, blk := range orphaned {
		re.Orphaned = append(re.Orphaned, blk.TxIDs...)
		pool = append(pool, blk.txs...)
	}
	c.mempool = append(pool, c.mempool...)
	c.reorgs = append(c.reorgs, re)
	watchers := append([]*netsim.Queue(nil), c.watchers...)
	c.mu.Unlock()
	for _, w := range watchers {
		w.Put(re)
		for _, blk := range branch {
			w.Put(blk)
		}
	}
}
