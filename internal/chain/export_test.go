package chain

// Helpers only the package's own tests call.

// Height returns the current chain height.
func (c *Chain) Height() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
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

// Followers returns the number of callbacks following the chain.
func (c *Chain) Followers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.followers)
}
