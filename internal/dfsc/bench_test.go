package dfsc

import (
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// BenchmarkNegotiateSerial is one simulated request as the DES issues it:
// lookup on an in-process MM, a serial CFP to each of the file's three
// in-process RMs, ranking, open, and the release. There is no transport
// under it, so what is left beside the three HandleCFP calls and the open
// is the client's own bookkeeping — the part scripts/bench.sh puts an
// allocation ceiling on.
func BenchmarkNegotiateSerial(b *testing.B) {
	b.Run("H3", func(b *testing.B) {
		h := newHarness(b,
			map[ids.RMID]units.BytesPerSec{1: units.Mbps(1800), 2: units.Mbps(1800), 3: units.Mbps(1800)},
			map[ids.FileID][]ids.RMID{0: {1, 2, 3}})
		c := h.client(b, selection.Full, qos.Soft)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, release := c.AccessHeld(0)
			if !out.OK {
				b.Fatalf("access refused: %s", out.Reason)
			}
			release()
		}
	})
}
