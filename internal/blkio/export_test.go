package blkio

// Group looks up a group by name.
func (c *Controller) Group(name string) (*Group, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	return g, ok
}

// Groups returns the group names (diagnostics).
func (c *Controller) Groups() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.groups))
	for name := range c.groups {
		out = append(out, name)
	}
	return out
}
