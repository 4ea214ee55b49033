package netsim

import (
	"sync"
	"time"
)

// Coalescer batches work per small-integer key (a shard index): Touch marks
// a key dirty, and at most one callback timer per key is armed per dispatch
// window — the first Touch in a window arms it, subsequent Touches ride the
// pending flush for free. When the window elapses, the flush function runs
// in timer-callback context (it must not block; spawn an actor for blocking
// work).
//
// The per-key fire closures are pre-bound at construction, so the steady
// state of touch-dispatch cycles performs zero allocations on top of the
// scheduler's own (already zero-alloc) RunAfter path — this is what the
// batched-dispatch allocation gate measures.
type Coalescer struct {
	clock  Clock
	window time.Duration
	flush  func(key int)

	mu    sync.Mutex
	armed []bool
	fire  []func()
}

// NewCoalescer creates a coalescer over keys 0..keys-1 dispatching flush
// after each key's window. A zero window still coalesces: everything
// touched at one model instant flushes together at that same instant, as
// soon as the scheduler reaches its timer queue.
func NewCoalescer(clock Clock, window time.Duration, keys int, flush func(key int)) *Coalescer {
	c := &Coalescer{
		clock:  clock,
		window: window,
		flush:  flush,
		armed:  make([]bool, keys),
		fire:   make([]func(), keys),
	}
	for k := range c.fire {
		k := k
		c.fire[k] = func() { c.dispatch(k) }
	}
	return c
}

// Touch marks key dirty, arming its dispatch timer if no flush is already
// pending; reports whether this call armed it.
func (c *Coalescer) Touch(key int) bool {
	c.mu.Lock()
	if c.armed[key] {
		c.mu.Unlock()
		return false
	}
	c.armed[key] = true
	c.mu.Unlock()
	c.clock.RunAfter(c.window, c.fire[key])
	return true
}

// dispatch runs in timer-callback context: disarm first, so a Touch from
// inside the flush (or concurrent with it) opens a fresh window.
func (c *Coalescer) dispatch(key int) {
	c.mu.Lock()
	c.armed[key] = false
	c.mu.Unlock()
	c.flush(key)
}
