package rm

import "dfsqos/internal/units"

// StorageUsed returns the bytes of committed and in-flight replicas.
func (r *RM) StorageUsed() units.Size {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storageUsed
}

// LeaseTTL returns the configured lease TTL in seconds (0: disabled).
func (r *RM) LeaseTTL() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaseTTL
}
