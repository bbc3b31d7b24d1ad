package mm

import "testing"

// The refused-replication path at the flash-crowd scenario's scale: 256
// RMs, one file at cap 8. scripts/bench.sh gates both on allocs/op.

var benchSink int

func BenchmarkBeginReplicationRefused(b *testing.B) {
	m := atCap(b, 256, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.BeginReplication(0, 100, 8) == nil {
			b.Fatal("reservation past the cap admitted")
		}
	}
}

func BenchmarkRMsWithout(b *testing.B) {
	m := atCap(b, 256, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(m.RMsWithout(0))
	}
}
