package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// pipeConn builds a bidirectional in-memory connection pair.
func pipeConn() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestRoundTripAllPayloads(t *testing.T) {
	payloads := []struct {
		kind Kind
		body any
	}{
		{KindRegisterRM, RegisterRM{
			Info:  ecnp.RMInfo{ID: 3, Capacity: units.Mbps(18), StorageBytes: 16 * units.GB, Addr: "127.0.0.1:9000"},
			Files: []ids.FileID{1, 2, 3},
		}},
		{KindLookup, FileRef{File: 42}},
		{KindRMList, RMList{RMs: []ids.RMID{1, 2, 3}}},
		{KindRMInfoList, RMInfoList{Infos: []ecnp.RMInfo{{ID: 1, Capacity: units.Mbps(128)}}}},
		{KindCount, Count{N: 3}},
		{KindCFP, ecnp.CFP{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300}},
		{KindOpen, ecnp.OpenRequest{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Firm: true}},
		{KindOpenResult, ecnp.OpenResult{OK: false, Reason: "insufficient bandwidth"}},
		{KindClose, CloseReq{Request: 9}},
		{KindOfferReplica, ecnp.ReplicaOffer{Replication: 7, File: 1, SizeBytes: units.MB, Bitrate: units.Mbps(2), DurationSec: 4, Rate: units.Mbps(1.8), Source: 2}},
		{KindOfferReply, OfferReply{Accepted: true}},
		{KindFinishReplica, FinishReplica{Replication: 7, Committed: true}},
		{KindReadFile, ReadFile{File: 1, ChunkSize: 65536}},
		{KindFileChunk, FileChunk{Offset: 128, Data: []byte{1, 2, 3}}},
		{KindFileEnd, FileEnd{Size: 131, Checksum: 0xdeadbeef}},
		{KindAck, Ack{}},
		{KindOpen, ecnp.OpenRequest{Request: 10, File: 9, Bitrate: units.Mbps(2), SizeBytes: 64 * units.MB, DurationSec: 256, Tenant: 4}},
		{KindShardMirror, ShardMirror{Op: "EndReplication", File: 12, RM: 3, Commit: true}},
		{KindShardHandoff, ShardHandoff{From: 1, Direction: "takeover",
			Infos:   []ecnp.RMInfo{{ID: 3, Capacity: units.Mbps(30), Addr: "127.0.0.1:7301"}},
			Entries: []ShardEntry{{File: 1, RMs: []ids.RMID{3}}}}},
	}
	client, server := pipeConn()
	done := make(chan error, 1)
	go func() {
		for range payloads {
			msg, err := server.Read()
			if err != nil {
				done <- err
				return
			}
			err = server.Write(msg.Kind, msg.Payload)
			msg.Release() // WriteChunk never retains the data, so release after echo
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, p := range payloads {
		reply, err := client.Call(p.kind, p.body)
		if err != nil {
			t.Fatalf("%v: %v", p.kind, err)
		}
		if reply.Kind != p.kind {
			t.Fatalf("echoed kind %v, want %v", reply.Kind, p.kind)
		}
		got := reply.Payload
		if fc, ok := reply.Chunk(); ok {
			got = *fc // fast-path chunks arrive as pooled pointers
		}
		if rq, ok := reply.Payload.(*ReadFile); ok {
			got = *rq // and so do fast-path read requests
		}
		if fe, ok := reply.FileEnd(); ok {
			got = fe // and stream ends
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", p.body) {
			t.Fatalf("%v payload mangled:\n got %+v\nwant %+v", p.kind, got, p.body)
		}
		reply.Release()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBidRoundTripCarriesQoSFields pins the bid frame's full field set —
// in particular the oversubscription-aware Assured/Ceil pair — so an RM's
// advertised ceiling survives the trip to the requester's admission logic.
func TestBidRoundTripCarriesQoSFields(t *testing.T) {
	bid := selection.Bid{
		RM:         7,
		Rem:        -units.Mbps(2), // negative: soft over-allocation
		Trend:      1234.5,
		OccBias:    0.75,
		Req:        units.Mbps(2),
		HasReplica: true,
		Assured:    units.Mbps(3),
		Ceil:       units.Mbps(9),
	}
	client, server := pipeConn()
	go func() {
		msg, err := server.Read()
		if err != nil {
			return
		}
		server.Write(msg.Kind, msg.Payload)
		msg.Release()
	}()
	reply, err := client.Call(KindBid, bid)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reply.Payload.(selection.Bid)
	if !ok {
		t.Fatalf("payload type %T, want selection.Bid", reply.Payload)
	}
	if got != bid {
		t.Fatalf("bid mangled:\n got %+v\nwant %+v", got, bid)
	}
	reply.Release()
}

func TestCallSurfacesRemoteError(t *testing.T) {
	client, server := pipeConn()
	go func() {
		server.Read()
		server.WriteError(errors.New("boom"))
	}()
	_, err := client.Call(KindLookup, FileRef{File: 1})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want remote boom", err)
	}
}

func TestReadEOFOnClose(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(a)
	b.Close()
	if _, err := conn.Read(); err == nil {
		t.Fatal("Read on closed pipe succeeded")
	}
}

func TestOversizeFrameRefused(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	big := FileChunk{Data: make([]byte, MaxFrame+1)}
	if err := c.Write(KindFileChunk, big); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestOversizeIncomingFrameRefused(t *testing.T) {
	var buf bytes.Buffer
	// Forge a header claiming a gigantic frame (length + codec tag).
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(CodecBinary)})
	c := NewConn(&buf)
	if _, err := c.Read(); err == nil {
		t.Fatal("oversize incoming frame accepted")
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 4, byte(CodecBinary)}) // 4-byte body...
	buf.Write([]byte{1, 2, 3, 4})                    // ...of garbage
	c := NewConn(&buf)
	if _, err := c.Read(); err == nil {
		t.Fatal("garbage frame decoded")
	}
}

func TestTruncatedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 1, 0, byte(CodecBinary)}) // claims 256 bytes, provides 2
	buf.Write([]byte{1, 2})
	c := NewConn(&buf)
	if _, err := c.Read(); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestFramesAreIndependent(t *testing.T) {
	// Two messages written through different Conn instances decode from a
	// single stream: no state shared between frames.
	var buf bytes.Buffer
	NewConn(&buf).Write(KindAck, Ack{})
	NewConn(&buf).Write(KindCount, Count{N: 7})
	r := NewConn(&buf)
	m1, err := r.Read()
	if err != nil || m1.Kind != KindAck {
		t.Fatalf("first frame: %v %v", m1.Kind, err)
	}
	m2, err := r.Read()
	if err != nil || m2.Kind != KindCount || m2.Payload.(Count).N != 7 {
		t.Fatalf("second frame: %+v %v", m2, err)
	}
}

func TestKindString(t *testing.T) {
	if KindCFP.String() != "CFP" {
		t.Errorf("KindCFP renders %q", KindCFP.String())
	}
	if Kind(999).String() != "Kind(999)" {
		t.Errorf("unknown kind renders %q", Kind(999).String())
	}
}

// TestKindStringCoversEveryKind walks the whole Kind enum and demands an
// interned name for each — a kind added without a kindNames entry fails
// here instead of rendering "Kind(n)" in telemetry labels. A deleted
// kind's reserved number has no name.
func TestKindStringCoversEveryKind(t *testing.T) {
	if name := kindDeleted.String(); name != "Kind(22)" {
		t.Errorf("the deleted kind renders %q, want Kind(22)", name)
	}
	for k := KindError; k <= KindShardHandoff; k++ {
		if k == kindDeleted {
			continue
		}
		if name := k.String(); strings.HasPrefix(name, "Kind(") || name == "" {
			t.Errorf("Kind %d has no kindNames entry (String() = %q)", uint16(k), name)
		}
	}
}

func TestLargeChunkRoundTrip(t *testing.T) {
	client, server := pipeConn()
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i)
	}
	go func() {
		msg, _ := server.Read()
		server.Write(msg.Kind, msg.Payload)
		msg.Release()
	}()
	reply, err := client.Call(KindFileChunk, FileChunk{Offset: 0, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	fc, ok := reply.Chunk()
	if !ok {
		t.Fatalf("payload is %T, not a chunk", reply.Payload)
	}
	if !bytes.Equal(fc.Data, data) {
		t.Fatal("large chunk mangled")
	}
	reply.Release()
}

func TestConcurrentWriters(t *testing.T) {
	a, b := net.Pipe()
	w := NewConn(a)
	r := NewConn(b)
	const n = 50
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; i < n; i++ {
				if err := w.Write(KindCount, Count{N: i}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 2*n; i++ {
		if _, err := r.Read(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrameTooLargeErrorMatchable(t *testing.T) {
	// Outgoing: an encode past MaxFrame surfaces a typed error carrying
	// the kind and both sizes, classifiable with errors.As.
	var buf bytes.Buffer
	c := NewConn(&buf)
	err := c.Write(KindFileChunk, FileChunk{Data: make([]byte, MaxFrame+1)})
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) {
		t.Fatalf("outgoing cap violation not a FrameTooLargeError: %v", err)
	}
	if !fe.Outgoing || fe.Kind != KindFileChunk || fe.Cap != MaxFrame || fe.Size <= MaxFrame {
		t.Fatalf("outgoing violation misreported: %+v", fe)
	}
	if !strings.Contains(fe.Error(), "exceeds cap") {
		t.Fatalf("unhelpful message: %q", fe.Error())
	}

	// Incoming: a forged header past the cap is rejected before any body
	// bytes are read, with Outgoing=false and no Kind (never decoded).
	var in bytes.Buffer
	in.Write([]byte{0xff, 0xff, 0xff, 0xff, 0})
	_, err = NewConn(&in).Read()
	fe = nil
	if !errors.As(err, &fe) {
		t.Fatalf("incoming cap violation not a FrameTooLargeError: %v", err)
	}
	if fe.Outgoing || fe.Kind != 0 || fe.Cap != MaxFrame {
		t.Fatalf("incoming violation misreported: %+v", fe)
	}
}

func TestWriteTornLeavesUnreadableStream(t *testing.T) {
	// A torn frame (full-length header, half the body) must not decode:
	// the reader blocks on the missing bytes and surfaces an error once
	// the stream ends — the shape of a peer crashing mid-write.
	var buf bytes.Buffer
	w := NewConn(&buf)
	if err := w.WriteTorn(KindCount, Count{N: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewConn(&buf).Read(); err == nil {
		t.Fatal("torn frame decoded cleanly")
	}
}

// TestChecksumIsCRC32C pins the algorithm behind ChecksumUpdate with the
// CRC-32C check value: both ends of every stream must fold the same
// function, and no frame layout says which.
func TestChecksumIsCRC32C(t *testing.T) {
	if got := ChecksumUpdate(ChecksumBasis, []byte("123456789")); got != 0xE3069283 {
		t.Fatalf("ChecksumUpdate(basis, \"123456789\") = %#x, want the CRC-32C check value 0xE3069283", got)
	}
	if got := ChecksumUpdate(ChecksumBasis, nil); got != ChecksumBasis {
		t.Fatalf("empty fold moved the state to %#x", got)
	}
}

func TestChecksumUpdateMatchesSplitInput(t *testing.T) {
	// The running checksum state must chain: folding a buffer in one call
	// equals folding it in arbitrary consecutive segments. The failover
	// path depends on this to verify a whole-file checksum accumulated
	// across stream segments served by different RMs, and the stripe
	// committer to fold segment buffers into one whole-file sum.
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	whole := ChecksumUpdate(ChecksumBasis, data)
	split := ChecksumBasis
	for _, cut := range [][2]int{{0, 1}, {1, 7}, {7, 512}, {512, 1024}} {
		split = ChecksumUpdate(split, data[cut[0]:cut[1]])
	}
	if whole != split {
		t.Fatalf("split checksum %x != whole %x", split, whole)
	}
	if whole == ChecksumBasis {
		t.Fatal("checksum did not absorb input")
	}
}
