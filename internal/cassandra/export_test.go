package cassandra

// Helpers only the package's own tests call.

// Apply merges a version into the replica's local state.
func (r *Replica) Apply(key string, v Versioned) bool { return r.tab.apply(key, v) }

// Keys returns the number of keys stored locally.
func (r *Replica) Keys() int { return r.tab.len() }

// len returns the number of stored keys.
func (t *table) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.data)
}
