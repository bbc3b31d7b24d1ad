package dfsc

// Len returns the number of cached entries, counting expired ones not
// yet swept (diagnostics).
func (c *MetaCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
