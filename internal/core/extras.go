package core

import (
	"context"
	"sync"
)

// This file holds the features Correctables inherit from modern Promises
// that the paper mentions but elides for space (§3.2: "error handling,
// timeouts, or other features inherited from modern Promises, such as
// aggregation or monadic-style chaining") — those an app, example or
// experiment here actually calls. Operation timeouts live in the invoke
// pipeline (binding.WithOpTimeout), not on the Correctable.

// Finally invokes f exactly once when c leaves the Updating state, whether
// it closed with a view or an error, and returns c for chaining.
func (c *Correctable[T]) Finally(f func()) *Correctable[T] {
	return c.SetCallbacks(Callbacks[T]{
		OnFinal: func(View[T]) { f() },
		OnError: func(error) { f() },
	})
}

// Race returns a Correctable that closes with the first view (of any level)
// delivered by any child — the "quick approximate result is sometimes
// better than an overdue reply" pattern (§4.4). Children keep running; only
// their first view matters. If every child fails, Race fails with the
// last-observed error. Watchers run on the children's scheduler, so racing
// simulation-backed Correctables parks actors instead of bare goroutines.
func Race[T any](cs ...*Correctable[T]) *Correctable[T] {
	out, ctrl := NewScheduled[T](schedOf(cs), nil)
	if len(cs) == 0 {
		_ = ctrl.Fail(ErrNoView)
		return out
	}
	var mu sync.Mutex
	failures := 0
	for _, c := range cs {
		c := c
		out.scheduler().Go(func() {
			v, err := c.First(context.Background())
			if err != nil {
				mu.Lock()
				failures++
				allFailed := failures == len(cs)
				mu.Unlock()
				if allFailed {
					_ = ctrl.Fail(err) // no-op if a view won the race
				}
				return
			}
			_ = ctrl.Close(v.Value, v.Level)
		})
	}
	return out
}
