package netsim

// Helpers only the package's own tests call.

// PendingTimers returns the number of entries in the clock's timer heap:
// sleeping actors, callback timers and pending Timers.
func (c *VirtualClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers.len()
}
