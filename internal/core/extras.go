package core

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
