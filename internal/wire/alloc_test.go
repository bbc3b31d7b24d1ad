package wire

import (
	"bytes"
	"io"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/selection"
	"dfsqos/internal/testenv"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// discardRW is a ReadWriter that swallows writes (encode allocation tests).
type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }

// loopRW replays one pre-encoded frame forever (decode allocation tests).
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

// hotCtlPayloads are the three frames that make up all but four of an
// open's 2·holders + 6 — the CFP and the Bid of every holder's round trip,
// and the Open — and two of the replication path's: the reservation every
// replication attempt opens with, and the mirror a sharded MM sends a
// successor for each such mutation. The last two hold the counted layouts
// (an int as i64, a length-prefixed string) to the fixed ones' ceiling.
var hotCtlPayloads = []struct {
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

// TestCtlCodecAllocations holds each hot control frame to 2 allocations
// to encode and 2 to decode. The codec itself allocates nothing: the
// payload is boxed into its interface once, outside the measured call, so
// encoding costs 0, and decoding costs the decoded struct's boxing into
// Msg.Payload plus, for the mirror, its one string. A layout that drifts
// onto reflection or a per-field callback trips the ceiling.
func TestCtlCodecAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const ceiling = 2
	for _, p := range hotCtlPayloads {
		c := NewConn(discardRW{})
		if avg := testing.AllocsPerRun(200, func() {
			if err := c.Write(p.kind, p.payload); err != nil {
				t.Fatal(err)
			}
		}); avg > ceiling {
			t.Errorf("%s: encode allocs/op = %v, want at most %d", p.name, avg, ceiling)
		}

		var frame bytes.Buffer
		if err := NewConn(&frame).Write(p.kind, p.payload); err != nil {
			t.Fatal(err)
		}
		r := NewConn(&loopRW{frame: frame.Bytes()})
		if avg := testing.AllocsPerRun(200, func() {
			if msg, err := r.Read(); err != nil || msg.Kind != p.kind {
				t.Fatalf("%s: decoded kind %v, err %v", p.name, msg.Kind, err)
			}
		}); avg > ceiling {
			t.Errorf("%s: decode allocs/op = %v, want at most %d", p.name, avg, ceiling)
		}
	}
}

// TestRangedReadCodecAllocatesNothing: the ReadFile request a striped read
// sends per segment is written from a pooled request and decoded into one
// (released after use), so neither side allocates.
func TestRangedReadCodecAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	req := ReadFile{File: 7, ChunkSize: 128 * 1024, Offset: 1 << 20, Request: 42, Length: 1 << 20}
	w := NewConn(discardRW{})
	if avg := testing.AllocsPerRun(200, func() {
		if err := w.WriteReadReq(trace.SpanContext{}, req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("WriteReadReq allocs/op = %v, want 0", avg)
	}

	var frame bytes.Buffer
	if err := NewConn(&frame).Write(KindReadFile, req); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&loopRW{frame: frame.Bytes()})
	if avg := testing.AllocsPerRun(200, func() {
		msg, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := msg.ReadReq(); !ok || got != req {
			t.Fatalf("decoded %+v ok=%v, want %+v", got, ok, req)
		}
		msg.Release()
	}); avg != 0 {
		t.Errorf("ranged request Read allocs/op = %v, want 0", avg)
	}
}
