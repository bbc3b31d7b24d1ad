package wire

// CodecStats snapshots the process-wide frame counters (tests and
// diagnostics).
func CodecStats() (tx, rx uint64) {
	m := codecMet.Load()
	return m.tx.Value(), m.rx.Value()
}
