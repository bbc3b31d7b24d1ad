package fsapi

import "fmt"

// Create stores a catalog file that has no replica yet — the write path
// the paper routes through the same CFP/bid negotiation as reads. The
// call fails if the file already has replicas (use Open) or no RM can
// admit the store. No program writes through the mount yet (ROADMAP,
// "Replicated striped writes"), so it lives beside its tests.
func (m *Mount) Create(name string) error {
	id, err := m.resolve(name)
	if err != nil {
		return err
	}
	if err := m.live(); err != nil {
		return err
	}
	if m.lookup != nil && m.lookup(id) > 0 {
		return fmt.Errorf("fsapi: %s already stored", name)
	}
	out := m.client.Store(id)
	if !out.OK {
		return fmt.Errorf("fsapi: create %s: %s", name, out.Reason)
	}
	return nil
}

// OpenHandles reports the number of live handles.
func (m *Mount) OpenHandles() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.open)
}
