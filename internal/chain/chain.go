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
	"sync"
	"time"

	"correctables/internal/faults"
	"correctables/internal/netsim"
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

// EqualValue implements core.Equaler[TxStatus]: two statuses refer to the
// same outcome if the transaction landed in the same block. Confirmation
// counts are monotone bookkeeping, not divergence.
func (s TxStatus) EqualValue(o TxStatus) bool {
	return s.TxID == o.TxID && s.BlockHeight == o.BlockHeight
}

// Block is one ledger block.
type Block struct {
	Height int
	TxIDs  []string
}

// Config describes a simulated chain.
type Config struct {
	// Transport provides the clock (required).
	Transport *netsim.Transport
	// BlockInterval is the mean time between blocks (default 10s model
	// time; Bitcoin's is 10 minutes — scaled down so experiments are
	// feasible, the shape is identical).
	BlockInterval time.Duration
	// MinerRegion locates the (single, simulated) miner: when a fault
	// schedule crashes the region, block production pauses until its
	// restart, so tracked transactions see a stalled final view. The
	// binding sets no default bound — confirmations take arbitrarily long
	// by nature (§4.5) — so clients that must not wait out an unbounded
	// outage bound their invocations with binding.WithOpTimeout. Empty
	// leaves mining unaffected by faults.
	MinerRegion netsim.Region
	// Seed fixes the block-timing RNG.
	Seed int64
}

// Chain is the simulated ledger. Blocks are mined by a self-rescheduling
// callback timer (no background goroutine) until Stop is called. Stop the
// chain before draining a VirtualClock, or the armed mining timer keeps
// the simulation alive forever.
type Chain struct {
	cfg   Config
	clock netsim.Clock

	mu        sync.Mutex
	rng       *randv2.Rand
	mempool   []Tx
	blocks    []Block
	followers []func(Block) bool
	stopped   bool
	// inj is the fault injector mining asks whether cfg.MinerRegion is
	// down; nil without one, or without a miner region.
	inj *faults.Injector
}

// jitter is the +/- fraction of randomness on block intervals (block
// arrival is memoryless in reality).
const jitter = 0.5

// New starts a chain per cfg.
func New(cfg Config) (*Chain, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("chain: Config.Transport is required")
	}
	if cfg.BlockInterval == 0 {
		cfg.BlockInterval = 10 * time.Second
	}
	c := &Chain{
		cfg:   cfg,
		clock: cfg.Transport.Clock(),
		rng:   randv2.New(randv2.NewPCG(uint64(cfg.Seed+11), 0xc4a1)),
	}
	if cfg.MinerRegion != "" {
		c.inj, _ = cfg.Transport.Interceptor().(*faults.Injector)
	}
	c.scheduleNext()
	return c, nil
}

// stopSentinel is delivered to every follower when the chain stops.
var stopSentinel = Block{Height: -1}

// Stop halts block production (effective at the next mining deadline) and
// hands the stop sentinel to every follower.
func (c *Chain) Stop() {
	c.mu.Lock()
	stopped := c.stopped
	c.stopped = true
	c.mu.Unlock()
	if !stopped {
		c.deliver(stopSentinel)
	}
}

// Submit places a transaction in the mempool.
func (c *Chain) Submit(tx Tx) {
	c.mu.Lock()
	c.mempool = append(c.mempool, tx)
	c.mu.Unlock()
}

// follow has f called with every block mined from now on and, when the
// chain stops, with a Block of Height < 0; f is dropped once it returns
// true. On a stopped chain f gets that sentinel at once.
func (c *Chain) follow(f func(Block) bool) {
	c.mu.Lock()
	stopped := c.stopped
	if !stopped {
		c.followers = append(c.followers, f)
	}
	c.mu.Unlock()
	if stopped {
		f(stopSentinel)
	}
}

// deliver hands blk to every follower in the order they followed, and drops
// those that are done. The followers run without the lock, so they may
// submit, follow and stop; one that stops the chain has those still
// following after blk given the sentinel too.
func (c *Chain) deliver(blk Block) {
	c.mu.Lock()
	fs := c.followers
	c.followers = nil
	c.mu.Unlock()
	kept := fs[:0]
	for _, f := range fs {
		if !f(blk) {
			kept = append(kept, f)
		}
	}
	clear(fs[len(kept):])
	c.mu.Lock()
	c.followers = append(kept, c.followers...)
	stopped := c.stopped
	c.mu.Unlock()
	if stopped && blk.Height >= 0 {
		c.deliver(stopSentinel)
	}
}

// scheduleNext arms the next mining deadline as a callback timer: block
// production costs no goroutine, however long the chain runs.
func (c *Chain) scheduleNext() {
	c.clock.RunAfter(c.nextInterval(), c.mineOnce)
}

// mineOnce produces one block at its deadline, sweeping the mempool into
// it, re-arms the timer and hands the block to the followers — unless the
// chain stopped, in which case the fired timer simply expires without
// rescheduling. It runs as a clock callback, and so do the followers.
func (c *Chain) mineOnce() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	// A crashed miner region produces no blocks: the tick re-arms without
	// mining until the region restarts (the mempool keeps accumulating,
	// like transactions waiting out an outage).
	if c.inj != nil && c.inj.Down(c.cfg.MinerRegion) {
		c.mu.Unlock()
		c.scheduleNext()
		return
	}
	blk := Block{Height: len(c.blocks) + 1}
	for _, tx := range c.mempool {
		blk.TxIDs = append(blk.TxIDs, tx.ID)
	}
	c.mempool = nil
	c.blocks = append(c.blocks, blk)
	c.mu.Unlock()
	c.scheduleNext()
	c.deliver(blk)
}

func (c *Chain) nextInterval() time.Duration {
	c.mu.Lock()
	u := c.rng.Float64()*2 - 1
	c.mu.Unlock()
	return time.Duration(float64(c.cfg.BlockInterval) * (1 + jitter*u))
}
