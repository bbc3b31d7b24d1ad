// Fast-path binary codec for the data plane, the per-open negotiation and
// other high-frequency frames. The frame prelude carries a one-byte codec
// tag, so every frame independently declares how its body is encoded: gob
// (tag 0, the stateless reflection codec every kind supports) or binary
// (tag 1, a hand-rolled fixed-layout encoding for the hot kinds). The two
// interleave freely on one connection — the reader dispatches per frame,
// and neither codec keeps cross-frame state, so the "stateless frame"
// recovery property of the original gob framing is preserved.
//
// Binary body layout (big-endian throughout):
//
//	[0]    uint8 flags: bit 0 = tenant slot present, bit 1 = trace slot
//	       present; any other bit set is a CodecError
//	[..]   int32 tenant ID (ids.TenantID)            — only with bit 0
//	[..]   int64 trace ID (ids.RequestID) | uint64 span ID — only with bit 1
//	[..]   uint16 kind
//	[..]   payload, fixed layout per kind:
//	  FileChunk:  offset u64 | data (rest of body, length implicit)
//	  FileEnd:    size u64 | checksum u64
//	  ReadFile:   file i32 | chunkSize i64 | offset i64 | request i64 | length i64
//	              (length 0 = stream to EOF)
//	  WriteFile:  file i32 | sizeBytes i64 | replication i64
//	  Ack:        (empty)
//	  Error:      text (rest of body, UTF-8)
//	  Heartbeat:  rm i32
//	  Keepalive:  request i64
//	  -- the seven bodies of one open's negotiation (2·holders + 6 frames
//	  -- per open: the frames the control plane sends most) --
//	  Lookup:     file i32                                   (wire.FileRef)
//	  RMList:     rm i32 × n (rest of body; n = 0 decodes to a nil slice)
//	  CFP:        request i64 | file i32 | bitrate f64 | durationSec f64 | tenant i32
//	  Bid:        rm i32 | rem f64 | trend f64 | occBias f64 | req f64 |
//	              hasReplica u8 | assured f64 | ceil f64 | tenantShare f64
//	  Open:       request i64 | file i32 | bitrate f64 | durationSec f64 |
//	              firm u8 | tenant i32                       (ecnp.OpenRequest)
//	  OpenResult: ok u8 | reason (rest of body, UTF-8)
//	  Close:      request i64                                (wire.CloseReq)
//
// A connection stamped with a tenant (Conn.SetTenant) sets bit 0 on every
// binary frame it writes; a write carrying a valid span context sets bit 1.
// An untenanted, untraced frame is the flags byte, the kind and the
// payload — one byte more than the payload's own layout.
//
// An f64 is the value's IEEE-754 bit pattern (math.Float64bits), so a
// negative Rem, a NaN and ±Inf arrive bit-exactly; a u8 bool is 0 or 1
// and any other byte is a CodecError, as is a body of the wrong length.
// Each decodes to the same value type gob would produce, so a receiver's
// msg.Payload.(ecnp.CFP) does not care which codec carried the frame.
//
// All other kinds — registration, the RMs listing, replica bookkeeping,
// replica offers and stores, the shard beat/mirror/handoff — stay on gob
// (which carries the trace context and tenant as optional Msg fields
// instead): they are administrative, sent per RM or per replication, never
// per open. To promote a kind to the fast path it must be (a)
// high-frequency enough to matter, (b) fixed-layout (or one-variable-tail
// like FileChunk/Error/RMList), and (c) versioned here. Two different
// things can change:
//
//   - Adding a kind, or a flag bit with its slot, is not a layout change.
//     No existing body moves; a reader that predates the addition rejects
//     the frame with a typed CodecError ("kind not covered by the binary
//     codec", "unknown flag bits"), exactly as it rejects any kind it never
//     knew, and a writer talking to such a peer pins the connection to gob
//     (SetFastPath(false)), which every kind still speaks. The seven
//     negotiation bodies joined this way.
//   - Changing an existing body's layout bumps the codec tag rather than
//     mutating the layout in place, so mixed-version peers fail with a
//     typed CodecError ("unknown codec tag") instead of silently
//     misparsing. A field added to selection.Bid is this case. Tags 2 and
//     3 — this same body behind a fixed trace slot and fixed tenant +
//     trace slots, before the flags byte existed — are gone and rejected
//     like any unknown tag.
//
// Buffer ownership: encode and decode both borrow scratch buffers from a
// sync.Pool. On the read side, a fast-path FileChunk's Data slice points
// INTO the pooled frame buffer; the Msg carries the loan and Msg.Release
// returns it. See Msg.Release for the contract.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// Codec identifies a frame-body encoding (the one-byte tag in the frame
// header).
type Codec uint8

// The wire codecs. CodecGob is the universal fallback; CodecBinary is the
// fast path, whose flags byte says which optional slots (tenant, trace)
// precede the kind field.
const (
	CodecGob    Codec = 0
	CodecBinary Codec = 1
)

// String implements fmt.Stringer for diagnostics.
func (c Codec) String() string {
	switch c {
	case CodecGob:
		return "gob"
	case CodecBinary:
		return "binary"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// CodecError reports a frame that could not be decoded — or would not be
// accepted — under the codec its header declares: an unknown codec tag, a
// binary frame sent to a gob-only endpoint, a kind the binary codec does
// not cover, or a body whose length contradicts the kind's fixed layout.
// Match it with
//
//	var ce *wire.CodecError
//	if errors.As(err, &ce) { ... }
//
// The connection is still frame-synchronized after a CodecError (the
// whole body was consumed), but callers should treat it as a protocol
// mismatch and drop the connection.
type CodecError struct {
	// Codec is the tag the offending frame declared.
	Codec Codec
	// Kind is the message kind, when the decoder got far enough to read
	// it (zero otherwise).
	Kind Kind
	// Reason is the human-readable diagnostic.
	Reason string
}

// Error implements error.
func (e *CodecError) Error() string {
	if e.Kind != 0 {
		return fmt.Sprintf("wire: codec %v, kind %v: %s", e.Codec, e.Kind, e.Reason)
	}
	return fmt.Sprintf("wire: codec %v: %s", e.Codec, e.Reason)
}

// defaultFastPath and defaultAcceptBinary seed every NewConn from the
// build-tag default (see fastpath_on.go / fastpath_off.go). Tests and
// benchmarks flip the write-side default to measure the gob baseline.
var (
	defaultFastPath     atomic.Bool
	defaultAcceptBinary atomic.Bool
)

func init() {
	defaultFastPath.Store(buildFastPath)
	defaultAcceptBinary.Store(buildFastPath)
}

// SetDefaultFastPath sets whether connections created from now on encode
// eligible frames with the binary codec (true, the non-gobonly build
// default) or keep everything on gob (false). It returns the previous
// default. Existing connections are unaffected; read-side acceptance is
// untouched. It exists for baseline benchmarks and build-parity tests.
func SetDefaultFastPath(on bool) (prev bool) {
	return defaultFastPath.Swap(on)
}

// frame geometry.
const (
	// headerSize is the fixed frame prelude: 4-byte big-endian body
	// length followed by the 1-byte codec tag. The length excludes the
	// prelude itself.
	headerSize = 5
	// flagsSize is the flags byte every binary body starts with.
	flagsSize = 1
	// tenantSize is the optional tenant slot: the tenant ID (int32).
	tenantSize = 4
	// traceSize is the optional trace slot: trace ID (int64, an
	// ids.RequestID) + span ID (uint64).
	traceSize = 16
	// kindSize is the kind field; the payload follows it.
	kindSize = 2
	// maxChunkPrefixLen is everything in a binary FileChunk frame before
	// the data bytes when both slots are present: prelude + flags + tenant
	// + trace + kind + offset. An unslotted chunk's prefix is 16 bytes.
	maxChunkPrefixLen = headerSize + flagsSize + tenantSize + traceSize + kindSize + 8
)

// The flag bits of a binary body's first byte.
const (
	flagTenant byte = 1 << 0
	flagTrace  byte = 1 << 1
	knownFlags      = flagTenant | flagTrace
)

// appendFramePrefix lays down what every binary frame starts with: the
// prelude (length left zero for the caller to patch once the body is
// complete), the flags byte, and the slots the flags announce — the tenant
// slot when t is a real tenant, the trace slot when tc is a valid span
// context. The kind field and payload follow. It is the single writer of
// the header, shared by the control path (Write) and the chunk path
// (WriteChunk).
func appendFramePrefix(b []byte, t ids.TenantID, tc trace.SpanContext) []byte {
	b = append(b, 0, 0, 0, 0, byte(CodecBinary), 0)
	flagsAt := len(b) - 1
	if t.Valid() {
		b[flagsAt] |= flagTenant
		b = binary.BigEndian.AppendUint32(b, uint32(int32(t)))
	}
	if tc.Valid() {
		b[flagsAt] |= flagTrace
		b = binary.BigEndian.AppendUint64(b, uint64(int64(tc.Trace)))
		b = binary.BigEndian.AppendUint64(b, tc.Span)
	}
	return b
}

// sealFrame patches the body length into a fully assembled frame's
// prelude; extra is the size of body bytes that travel outside frame (a
// chunk's data slice). It refuses a body past MaxFrame.
func sealFrame(frame []byte, extra int, kind Kind) error {
	n := len(frame) - headerSize + extra
	if n > MaxFrame {
		return &FrameTooLargeError{Kind: kind, Size: int64(n), Cap: MaxFrame, Outgoing: true}
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	return nil
}

// bufPool recycles frame-sized scratch buffers across Write and Read.
// Entries are *[]byte so Put does not allocate a slice header.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf caps the capacity returned to the pool: data-plane frames
// (≤ 256 KiB chunks) always recycle, while a rare near-MaxFrame frame is
// left to the GC instead of pinning megabytes per P.
const maxPooledBuf = 512 * 1024

// getBuf returns a pooled buffer with capacity ≥ n and length 0.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

// putBuf returns a buffer to the pool (oversized ones go to the GC).
func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// chunkPool recycles the FileChunk payload structs the fast-path decoder
// hands out, so a steady-state stream loop performs zero allocations per
// chunk. Msg.Release feeds it.
var chunkPool = sync.Pool{New: func() any { return new(FileChunk) }}

// readReqPool recycles the ReadFile structs fast-path requests decode
// into: a striped read issues one request per segment, so the request
// decode must stay off the per-segment allocation budget the same way
// chunks do. Msg.Release feeds it.
var readReqPool = sync.Pool{New: func() any { return new(ReadFile) }}

// chunkFrame is the reusable scratch for a single-writev chunk write: the
// frame prefix (16 bytes unslotted, up to 36 with the tenant and trace
// slots) plus a two-element net.Buffers that lets the data slice go to the
// kernel without being copied into a contiguous frame. bufs is rebuilt
// from arr on every use because Buffers.WriteTo consumes the slice it
// writes (advancing it to zero length AND zero capacity) — an append into
// the consumed slice would reallocate per call.
type chunkFrame struct {
	prefix [maxChunkPrefixLen]byte
	arr    [2][]byte
	bufs   net.Buffers
}

var chunkFramePool = sync.Pool{New: func() any { return new(chunkFrame) }}

// WriteChunk sends one FileChunk frame: WriteChunkTraced with no span
// context.
func (c *Conn) WriteChunk(offset int64, data []byte) error {
	return c.WriteChunkTraced(trace.SpanContext{}, offset, data)
}

// WriteChunkTraced sends one FileChunk frame carrying the span context tc
// (zero: untraced), so the serving RM's stream span and the client's
// segment span share one trace. On the fast path it is the zero-allocation
// hot loop of every data stream: the prefix — 16 bytes, plus the tenant
// and trace slots when present — is assembled in a pooled array and goes
// out with the caller's data slice as a single writev (net.Buffers), so
// each chunk costs one syscall and zero copies. data is only read, never
// retained, so the caller may reuse its buffer immediately. With the fast
// path disabled it degrades to the gob frame Write would produce.
func (c *Conn) WriteChunkTraced(tc trace.SpanContext, offset int64, data []byte) error {
	if !c.fastWrite.Load() {
		return c.writeGobMsg(Msg{Kind: KindFileChunk, Payload: FileChunk{Offset: offset, Data: data}, Trace: tc})
	}
	f := chunkFramePool.Get().(*chunkFrame)
	prefix := appendFramePrefix(f.prefix[:0], c.tenantID(), tc)
	prefix = binary.BigEndian.AppendUint16(prefix, uint16(KindFileChunk))
	prefix = binary.BigEndian.AppendUint64(prefix, uint64(offset))
	if err := sealFrame(prefix, len(data), KindFileChunk); err != nil {
		chunkFramePool.Put(f)
		return err
	}
	if err := c.writevChunk(f, prefix, data); err != nil {
		return err
	}
	codecMet.Load().txBinary.Inc()
	return nil
}

// WriteReadReq sends one ReadFile request. It is the per-segment control
// frame of a striped read, so the fast path keeps it at zero allocations:
// the payload rides a pooled *ReadFile, and boxing a pointer into the
// payload interface does not allocate the way boxing the 5-field struct
// value would. With the fast path disabled it degrades to the gob frame
// Write would produce (gob sees the plain value — pointers need no
// registration).
func (c *Conn) WriteReadReq(tc trace.SpanContext, req ReadFile) error {
	if !c.fastWrite.Load() {
		return c.writeGobMsg(Msg{Kind: KindReadFile, Payload: req, Trace: tc})
	}
	rq := readReqPool.Get().(*ReadFile)
	*rq = req
	err := c.WriteTraced(tc, KindReadFile, rq)
	*rq = ReadFile{}
	readReqPool.Put(rq)
	return err
}

// writevChunk pushes prefix+data as a single writev under the write lock
// and returns f to the pool.
func (c *Conn) writevChunk(f *chunkFrame, prefix, data []byte) error {
	f.arr[0] = prefix
	f.arr[1] = data
	f.bufs = net.Buffers(f.arr[:])
	c.wmu.Lock()
	c.armWriteDeadlineLocked()
	_, err := f.bufs.WriteTo(c.rw)
	c.wmu.Unlock()
	// Drop the data references before pooling so the pool does not pin the
	// caller's buffer (WriteTo consumes bufs but arr keeps the originals).
	f.arr[0], f.arr[1] = nil, nil
	f.bufs = nil
	chunkFramePool.Put(f)
	if err != nil {
		return fmt.Errorf("wire: writing %v frame: %w", KindFileChunk, err)
	}
	return nil
}

// appendBinary appends the kind field and payload for one eligible
// (kind, payload) pair to b. It reports false when the pair is
// not fast-path encodable, leaving b's length unchanged.
func appendBinary(b []byte, kind Kind, payload any) ([]byte, bool) {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, uint16(kind))
	switch kind {
	case KindFileEnd:
		p, ok := payload.(FileEnd)
		if !ok {
			// A server ending one ranged stream per MiB sends a pooled
			// pointer, as WriteReadReq does, so the interface conversion
			// never allocates.
			pp, pok := payload.(*FileEnd)
			if !pok {
				return b[:start], false
			}
			p = *pp
		}
		b = binary.BigEndian.AppendUint64(b, uint64(p.Size))
		b = binary.BigEndian.AppendUint64(b, p.Checksum)
	case KindReadFile:
		p, ok := payload.(ReadFile)
		if !ok {
			// WriteReadReq sends a pooled pointer so the interface
			// conversion never allocates.
			pp, pok := payload.(*ReadFile)
			if !pok {
				return b[:start], false
			}
			p = *pp
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.File)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(p.ChunkSize)))
		b = binary.BigEndian.AppendUint64(b, uint64(p.Offset))
		b = binary.BigEndian.AppendUint64(b, uint64(p.Request))
		b = binary.BigEndian.AppendUint64(b, uint64(p.Length))
	case KindWriteFile:
		p, ok := payload.(WriteFile)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.File)))
		b = binary.BigEndian.AppendUint64(b, uint64(p.SizeBytes))
		b = binary.BigEndian.AppendUint64(b, uint64(p.Replication))
	case KindAck:
		if _, ok := payload.(Ack); !ok {
			return b[:start], false
		}
	case KindError:
		p, ok := payload.(Error)
		if !ok {
			return b[:start], false
		}
		b = append(b, p.Text...)
	case KindHeartbeat:
		p, ok := payload.(Heartbeat)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.RM)))
	case KindKeepalive:
		p, ok := payload.(Keepalive)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint64(b, uint64(p.Request))
	case KindCFP:
		p, ok := payload.(ecnp.CFP)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint64(b, uint64(p.Request))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.File)))
		b = appendFloat(b, float64(p.Bitrate))
		b = appendFloat(b, p.DurationSec)
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.Tenant)))
	case KindBid:
		p, ok := payload.(selection.Bid)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.RM)))
		b = appendFloat(b, float64(p.Rem))
		b = appendFloat(b, p.Trend)
		b = appendFloat(b, p.OccBias)
		b = appendFloat(b, float64(p.Req))
		b = appendBool(b, p.HasReplica)
		b = appendFloat(b, float64(p.Assured))
		b = appendFloat(b, float64(p.Ceil))
		b = appendFloat(b, p.TenantShare)
	case KindOpen:
		p, ok := payload.(ecnp.OpenRequest)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint64(b, uint64(p.Request))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.File)))
		b = appendFloat(b, float64(p.Bitrate))
		b = appendFloat(b, p.DurationSec)
		b = appendBool(b, p.Firm)
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.Tenant)))
	case KindOpenResult:
		p, ok := payload.(ecnp.OpenResult)
		if !ok {
			return b[:start], false
		}
		b = appendBool(b, p.OK)
		b = append(b, p.Reason...)
	case KindClose:
		p, ok := payload.(CloseReq)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint64(b, uint64(p.Request))
	case KindLookup:
		p, ok := payload.(FileRef)
		if !ok {
			return b[:start], false
		}
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.File)))
	case KindRMList:
		p, ok := payload.(RMList)
		if !ok {
			return b[:start], false
		}
		for _, rm := range p.RMs {
			b = binary.BigEndian.AppendUint32(b, uint32(int32(rm)))
		}
	default:
		return b[:start], false
	}
	return b, true
}

// appendFloat appends f's IEEE-754 bit pattern, so negative values, NaN
// payloads and ±Inf round-trip bit-exactly.
func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// floatAt reads the float64 appendFloat wrote at the start of p.
func floatAt(p []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(p))
}

// appendBool appends v as one byte: 0 or 1, the only two the decoder
// accepts.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeFrame parses one binary frame body: it peels the flags byte and
// the slots it announces into the returned Msg's Tenant and Trace, then
// hands the rest (kind + payload) to decodeBinary. An unknown flag bit or
// a body that ends inside a slot is a typed *CodecError. bp and retained
// are decodeBinary's.
func decodeFrame(body []byte, bp *[]byte) (msg Msg, retained bool, err error) {
	if len(body) < flagsSize {
		return Msg{}, false, &CodecError{Codec: CodecBinary, Reason: "body shorter than flags byte"}
	}
	flags, rest := body[0], body[flagsSize:]
	if flags&^knownFlags != 0 {
		return Msg{}, false, &CodecError{Codec: CodecBinary, Reason: fmt.Sprintf("unknown flag bits %#02x", flags&^knownFlags)}
	}
	var tenant ids.TenantID
	var tc trace.SpanContext
	if flags&flagTenant != 0 {
		if len(rest) < tenantSize {
			return Msg{}, false, &CodecError{Codec: CodecBinary, Reason: "body shorter than tenant slot"}
		}
		tenant = ids.TenantID(int32(binary.BigEndian.Uint32(rest)))
		rest = rest[tenantSize:]
	}
	if flags&flagTrace != 0 {
		if len(rest) < traceSize {
			return Msg{}, false, &CodecError{Codec: CodecBinary, Reason: "body shorter than trace slot"}
		}
		tc.Trace = ids.RequestID(int64(binary.BigEndian.Uint64(rest)))
		tc.Span = binary.BigEndian.Uint64(rest[8:])
		rest = rest[traceSize:]
	}
	msg, retained, err = decodeBinary(rest, bp)
	msg.Tenant, msg.Trace = tenant, tc
	return msg, retained, err
}

// decodeBinary parses the kind field and payload of a binary body (what
// follows the flags byte and slots). bp is the pooled buffer backing
// body; when the decoded payload borrows from it (FileChunk keeps its
// Data in place instead of copying), the returned Msg carries the loan
// and retained is true — the caller must NOT putBuf it, Msg.Release will.
// Hostile input (short bodies, wrong fixed lengths, kinds the codec does
// not cover) yields a typed *CodecError, never a panic.
func decodeBinary(body []byte, bp *[]byte) (msg Msg, retained bool, err error) {
	if len(body) < kindSize {
		return Msg{}, false, &CodecError{Codec: CodecBinary, Reason: "body shorter than kind field"}
	}
	kind := Kind(binary.BigEndian.Uint16(body[:kindSize]))
	p := body[kindSize:]
	badLen := func() (Msg, bool, error) {
		return Msg{}, false, &CodecError{Codec: CodecBinary, Kind: kind,
			Reason: fmt.Sprintf("payload length %d contradicts fixed layout", len(p))}
	}
	badBool := func(v byte) (Msg, bool, error) {
		return Msg{}, false, &CodecError{Codec: CodecBinary, Kind: kind,
			Reason: fmt.Sprintf("bool byte %d is neither 0 nor 1", v)}
	}
	switch kind {
	case KindFileChunk:
		if len(p) < 8 {
			return badLen()
		}
		ch := chunkPool.Get().(*FileChunk)
		ch.Offset = int64(binary.BigEndian.Uint64(p[:8]))
		ch.Data = p[8:]
		return Msg{Kind: kind, Payload: ch, pooled: bp, chunk: ch}, true, nil
	case KindFileEnd:
		if len(p) != 16 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: FileEnd{
			Size:     int64(binary.BigEndian.Uint64(p[:8])),
			Checksum: binary.BigEndian.Uint64(p[8:16]),
		}}, false, nil
	case KindReadFile:
		if len(p) != 36 {
			return badLen()
		}
		rq := readReqPool.Get().(*ReadFile)
		rq.File = ids.FileID(int32(binary.BigEndian.Uint32(p[:4])))
		rq.ChunkSize = int(int64(binary.BigEndian.Uint64(p[4:12])))
		rq.Offset = int64(binary.BigEndian.Uint64(p[12:20]))
		rq.Request = ids.RequestID(int64(binary.BigEndian.Uint64(p[20:28])))
		rq.Length = int64(binary.BigEndian.Uint64(p[28:36]))
		return Msg{Kind: kind, Payload: rq, rreq: rq}, false, nil
	case KindWriteFile:
		if len(p) != 20 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: WriteFile{
			File:        ids.FileID(int32(binary.BigEndian.Uint32(p[:4]))),
			SizeBytes:   int64(binary.BigEndian.Uint64(p[4:12])),
			Replication: ids.ReplicationID(int64(binary.BigEndian.Uint64(p[12:20]))),
		}}, false, nil
	case KindAck:
		if len(p) != 0 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: Ack{}}, false, nil
	case KindError:
		return Msg{Kind: kind, Payload: Error{Text: string(p)}}, false, nil
	case KindHeartbeat:
		if len(p) != 4 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: Heartbeat{RM: ids.RMID(int32(binary.BigEndian.Uint32(p[:4])))}}, false, nil
	case KindKeepalive:
		if len(p) != 8 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: Keepalive{Request: ids.RequestID(int64(binary.BigEndian.Uint64(p[:8])))}}, false, nil
	case KindCFP:
		if len(p) != 32 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: ecnp.CFP{
			Request:     ids.RequestID(int64(binary.BigEndian.Uint64(p[:8]))),
			File:        ids.FileID(int32(binary.BigEndian.Uint32(p[8:12]))),
			Bitrate:     units.BytesPerSec(floatAt(p[12:20])),
			DurationSec: floatAt(p[20:28]),
			Tenant:      ids.TenantID(int32(binary.BigEndian.Uint32(p[28:32]))),
		}}, false, nil
	case KindBid:
		if len(p) != 61 {
			return badLen()
		}
		if p[36] > 1 {
			return badBool(p[36])
		}
		return Msg{Kind: kind, Payload: selection.Bid{
			RM:          ids.RMID(int32(binary.BigEndian.Uint32(p[:4]))),
			Rem:         units.BytesPerSec(floatAt(p[4:12])),
			Trend:       floatAt(p[12:20]),
			OccBias:     floatAt(p[20:28]),
			Req:         units.BytesPerSec(floatAt(p[28:36])),
			HasReplica:  p[36] == 1,
			Assured:     units.BytesPerSec(floatAt(p[37:45])),
			Ceil:        units.BytesPerSec(floatAt(p[45:53])),
			TenantShare: floatAt(p[53:61]),
		}}, false, nil
	case KindOpen:
		if len(p) != 33 {
			return badLen()
		}
		if p[28] > 1 {
			return badBool(p[28])
		}
		return Msg{Kind: kind, Payload: ecnp.OpenRequest{
			Request:     ids.RequestID(int64(binary.BigEndian.Uint64(p[:8]))),
			File:        ids.FileID(int32(binary.BigEndian.Uint32(p[8:12]))),
			Bitrate:     units.BytesPerSec(floatAt(p[12:20])),
			DurationSec: floatAt(p[20:28]),
			Firm:        p[28] == 1,
			Tenant:      ids.TenantID(int32(binary.BigEndian.Uint32(p[29:33]))),
		}}, false, nil
	case KindOpenResult:
		if len(p) < 1 {
			return badLen()
		}
		if p[0] > 1 {
			return badBool(p[0])
		}
		return Msg{Kind: kind, Payload: ecnp.OpenResult{OK: p[0] == 1, Reason: string(p[1:])}}, false, nil
	case KindClose:
		if len(p) != 8 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: CloseReq{Request: ids.RequestID(int64(binary.BigEndian.Uint64(p[:8])))}}, false, nil
	case KindLookup:
		if len(p) != 4 {
			return badLen()
		}
		return Msg{Kind: kind, Payload: FileRef{File: ids.FileID(int32(binary.BigEndian.Uint32(p[:4])))}}, false, nil
	case KindRMList:
		if len(p)%4 != 0 {
			return badLen()
		}
		// An empty list decodes to a nil slice, as gob's omitted-when-empty
		// field does.
		var rms []ids.RMID
		if len(p) > 0 {
			rms = make([]ids.RMID, len(p)/4)
			for i := range rms {
				rms[i] = ids.RMID(int32(binary.BigEndian.Uint32(p[4*i:])))
			}
		}
		return Msg{Kind: kind, Payload: RMList{RMs: rms}}, false, nil
	}
	return Msg{}, false, &CodecError{Codec: CodecBinary, Kind: kind, Reason: "kind not covered by the binary codec"}
}
