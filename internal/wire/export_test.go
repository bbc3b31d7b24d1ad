package wire

// CodecStats snapshots the process-wide frame counters (tests and
// diagnostics).
func CodecStats() (tx, rx uint64) {
	m := codecMet.Load()
	return m.tx.Value(), m.rx.Value()
}

// ReadReq extracts a received ReadFile payload: a copy of the pooled
// *ReadFile the request decoded into, so it stays valid after Release. It
// reports false for any other payload.
func (m *Msg) ReadReq() (ReadFile, bool) {
	if p, ok := m.Payload.(*ReadFile); ok {
		return *p, true
	}
	return ReadFile{}, false
}

// kindDeleted is the number of the deleted store kind. It stays
// reserved: the kinds are an iota, and no payload decodes under it.
const kindDeleted = KindFinishReplica + 1
