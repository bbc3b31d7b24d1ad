package transport

// FailureCount returns the consecutive dial-failure count (diagnostics
// and backoff tests).
func (c *Client) FailureCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fails
}

// IdleConns returns the current pooled-connection count (tests).
func (c *Client) IdleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}
