package tenant

import "dfsqos/internal/ids"

// Quota returns the tenant's declared quota (Unlimited when never Set).
func (l *Ledger) Quota(t ids.TenantID) Quota {
	if l == nil || !t.Valid() {
		return Unlimited
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.accts[t]; a != nil {
		return a.quota
	}
	return Unlimited
}
