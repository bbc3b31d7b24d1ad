package wire

import (
	"bytes"
	"io"
	"net"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// discardRW is a ReadWriter that swallows writes (encode benchmarks).
type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }

// loopRW replays one pre-encoded frame forever (decode benchmarks).
type loopRW struct {
	frame []byte
	off   int
}

func (l *loopRW) Read(p []byte) (int, error) {
	if l.off == len(l.frame) {
		l.off = 0
	}
	n := copy(p, l.frame[l.off:])
	l.off += n
	return n, nil
}

func (l *loopRW) Write(p []byte) (int, error) { return len(p), nil }

// benchChunk is the data-plane payload size the RM stream server uses.
const benchChunk = 128 * 1024

func chunkData() []byte {
	data := make([]byte, benchChunk)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return data
}

// BenchmarkEncodeChunk measures the cost of putting one FileChunk frame on
// the wire under each slot combination (no slots, trace, tenant, both).
// Every sub-benchmark must be 0 allocs/op (scripts/bench.sh pins this):
// neither tracing nor tenancy may put allocations back on the data plane.
func BenchmarkEncodeChunk(b *testing.B) {
	data := chunkData()
	for _, s := range slotCases {
		b.Run(s.name, func(b *testing.B) {
			c := s.conn(discardRW{})
			b.SetBytes(benchChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.WriteChunkTraced(s.tc, int64(i)*benchChunk, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeChunk measures turning frame bytes back into a FileChunk
// under each slot combination. The chunk borrows the pooled frame buffer
// (0 allocs/op with Release, gated like the encoder).
func BenchmarkDecodeChunk(b *testing.B) {
	data := chunkData()
	for _, s := range slotCases {
		b.Run(s.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := s.conn(&buf).WriteChunkTraced(s.tc, 0, data); err != nil {
				b.Fatal(err)
			}
			r := NewConn(&loopRW{frame: buf.Bytes()})
			b.SetBytes(benchChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, err := r.Read()
				if err != nil {
					b.Fatal(err)
				}
				msg.Release()
			}
		})
	}
}

// BenchmarkRoundTrip measures encode + decode through an in-memory stream,
// the full per-frame codec cost without network effects.
func BenchmarkRoundTrip(b *testing.B) {
	data := chunkData()
	var buf bytes.Buffer
	c := NewConn(&buf)
	b.SetBytes(benchChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteChunk(int64(i)*benchChunk, data); err != nil {
			b.Fatal(err)
		}
		msg, err := c.Read()
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}

// ctlBenchPayloads are the three frames that make up all but four of an
// open's 2·holders + 6 — the CFP and the Bid of every holder's round trip,
// and the Open — and two of the replication path's: the reservation every
// replication attempt opens with, and the mirror a sharded MM sends a
// successor for each such mutation. The last two hold the counted layouts
// (an int as i64, a length-prefixed string) to the fixed ones' ceiling.
var ctlBenchPayloads = []struct {
	name    string
	kind    Kind
	payload any
}{
	{"CFP", KindCFP, ecnp.CFP{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Tenant: 4}},
	{"Bid", KindBid, selection.Bid{RM: 7, Rem: units.Mbps(40), Trend: 1234.5, OccBias: 0.75, Req: units.Mbps(2),
		HasReplica: true, Assured: units.Mbps(40), Ceil: units.Mbps(60), TenantShare: 0.125}},
	{"OpenRequest", KindOpen, ecnp.OpenRequest{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Firm: true, Tenant: 4}},
	{"BeginReplication", KindBeginReplication, BeginReplication{File: 1, RM: 7, MaxTotal: 8}},
	{"ShardMirror", KindShardMirror, ShardMirror{Op: "BeginReplication", File: 1, RM: 7, MaxTotal: 8}},
}

// BenchmarkEncodeCtl measures putting one control frame on the wire. The
// payload is boxed into its interface once, outside the loop, so the
// sub-benchmarks show the codec alone (0 allocs/op; a caller that boxes
// per call pays 1 — scripts/bench.sh allows 2).
func BenchmarkEncodeCtl(b *testing.B) {
	for _, p := range ctlBenchPayloads {
		b.Run(p.name, func(b *testing.B) {
			c := NewConn(discardRW{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Write(p.kind, p.payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeCtl measures turning the same frames back into payload
// values. The one allocation of a fixed layout is the decoded struct's
// boxing into Msg.Payload; a string field is one more.
func BenchmarkDecodeCtl(b *testing.B) {
	for _, p := range ctlBenchPayloads {
		b.Run(p.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := NewConn(&buf).Write(p.kind, p.payload); err != nil {
				b.Fatal(err)
			}
			r := NewConn(&loopRW{frame: buf.Bytes()})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, err := r.Read()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += uint64(msg.Kind)
			}
		})
	}
}

// BenchmarkStreamThroughput measures a producer/consumer chunk stream over
// an in-process pipe: writer goroutine framing chunks, reader consuming
// and checksumming them — the shape of the RM data plane minus the kernel.
func BenchmarkStreamThroughput(b *testing.B) {
	data := chunkData()
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()
	w, r := NewConn(cw), NewConn(cr)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if err := w.WriteChunk(int64(i)*benchChunk, data); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.SetBytes(benchChunk)
	b.ReportAllocs()
	b.ResetTimer()
	sum := ChecksumBasis
	for i := 0; i < b.N; i++ {
		msg, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		if ch, ok := msg.Chunk(); ok {
			sum = ChecksumUpdate(sum, ch.Data[:64]) // sample, not full hash
		}
		msg.Release()
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	benchSink = sum
}

// benchSink keeps the fold's result live so the compiler cannot delete
// the measured loop.
var benchSink uint64

// BenchmarkChecksum prices the data-integrity fold (CRC-32C, in hardware
// where the CPU has it) over one data chunk: the per-byte cost every
// verified stream pays on each side of the socket.
func BenchmarkChecksum(b *testing.B) {
	data := chunkData()
	b.SetBytes(benchChunk)
	sum := ChecksumBasis
	for i := 0; i < b.N; i++ {
		sum = ChecksumUpdate(sum, data)
	}
	benchSink = sum
}
