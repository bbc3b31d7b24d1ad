// Fast-path binary codec for the data plane, the per-open negotiation and
// other high-frequency frames. The frame header carries a one-byte codec
// tag, so every frame independently declares how its body is encoded: gob
// (tag 0, the stateless reflection codec every kind supports), binary v1
// (tag 1, a hand-rolled fixed-layout encoding for the hot kinds), or
// traced binary (tag 2, the same layout with a 16-byte trace slot ahead of
// the kind). All three codecs can interleave freely on one connection —
// the reader dispatches per frame, and no codec keeps cross-frame state,
// so the "stateless frame" recovery property of the original gob framing
// is preserved.
//
// Binary v1 body layout (big-endian throughout):
//
//	[0:2]  uint16 kind
//	[2:]   payload, fixed layout per kind:
//	  FileChunk:  offset u64 | data (rest of body, length implicit)
//	  FileEnd:    size u64 | checksum u64
//	  ReadFile:   file i32 | chunkSize i64 | offset i64 | request i64 [| length i64]
//	              (the trailing length is present only for ranged reads —
//	              Length > 0 — so a whole-file request frames byte-identically
//	              to the pre-ranged layout; the decoder accepts both lengths)
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
// An f64 is the value's IEEE-754 bit pattern (math.Float64bits), so a
// negative Rem, a NaN and ±Inf arrive bit-exactly; a u8 bool is 0 or 1
// and any other byte is a CodecError, as is a body of the wrong length.
// Each decodes to the same value type gob would produce, so a receiver's
// msg.Payload.(ecnp.CFP) does not care which codec carried the frame.
//
// Traced binary (tag 2) body layout:
//
//	[0:8]   int64 trace ID (ids.RequestID)
//	[8:16]  uint64 span ID
//	[16:]   a binary-v1 body (kind + payload as above)
//
// Tenant binary (tag 3) body layout — the tenant slot ahead of the trace
// slot, claimed per the same versioning rule when tenancy landed:
//
//	[0:4]   int32 tenant ID (ids.TenantID)
//	[4:12]  int64 trace ID (ids.RequestID; zero = untraced)
//	[12:20] uint64 span ID (zero = untraced)
//	[20:]   a binary-v1 body (kind + payload as above)
//
// A tag-3 frame always carries both slots: a connection stamped with a
// tenant (Conn.SetTenant) sends every eligible frame as tag 3 whether or
// not it is traced, with a zero trace slot meaning "untraced", so the
// data plane never branches per frame on trace presence.
//
// All other kinds — registration, the RMs listing, replica bookkeeping,
// replica offers and stores, the shard beat/mirror/handoff — stay on gob
// (which carries the trace slot and tenant as optional Msg fields
// instead): they are administrative, sent per RM or per replication, never
// per open. To promote a kind to the fast path it must be (a)
// high-frequency enough to matter, (b) fixed-layout (or one-variable-tail
// like FileChunk/Error/RMList), and (c) versioned here. Two different
// things can change:
//
//   - Adding a kind to binary v1 is not a layout change. No existing
//     body moves; a reader that predates the kind rejects the frame with
//     the typed "kind not covered by the binary codec" CodecError, exactly
//     as it rejects any kind it never knew, and a writer talking to such a
//     peer pins the connection to gob (SetFastPath(false)), which every
//     kind still speaks. The seven negotiation bodies joined v1 this way.
//   - Changing an existing kind's layout bumps the codec tag (as the trace
//     slot did, claiming tag 2, and the tenant slot did, claiming tag 3)
//     rather than mutating the layout in place, so mixed-version peers
//     fail with a typed CodecError instead of silently misparsing. A field
//     added to selection.Bid is this case.
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

// The wire codecs. CodecGob is the universal fallback; CodecBinary is
// fast-path binary v1; CodecBinaryTraced is binary v1 carrying a
// 16-byte trace slot ahead of the kind field; CodecBinaryTenant is
// binary v1 carrying a 4-byte tenant slot and the 16-byte trace slot
// (see below). Per the versioning rule, each slot got its own tag
// instead of mutating v1's layout in place.
const (
	CodecGob          Codec = 0
	CodecBinary       Codec = 1
	CodecBinaryTraced Codec = 2
	CodecBinaryTenant Codec = 3
)

// String implements fmt.Stringer for diagnostics.
func (c Codec) String() string {
	switch c {
	case CodecGob:
		return "gob"
	case CodecBinary:
		return "binary"
	case CodecBinaryTraced:
		return "binary-traced"
	case CodecBinaryTenant:
		return "binary-tenant"
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
	// kindSize is the binary-codec kind field at the start of the body.
	kindSize = 2
	// traceSize is the fixed trace slot a CodecBinaryTraced body starts
	// with: trace ID (int64, an ids.RequestID) + span ID (uint64), both
	// big-endian. The slot precedes the kind field, so the rest of the
	// body is exactly a binary-v1 body.
	traceSize = 16
	// tenantSize is the fixed tenant slot a CodecBinaryTenant body
	// starts with: the tenant ID (int32), big-endian, ahead of the trace
	// slot.
	tenantSize = 4
	// chunkPrefixLen is everything in a binary FileChunk frame before
	// the data bytes: header + kind + offset.
	chunkPrefixLen = headerSize + kindSize + 8
	// tracedChunkPrefixLen is the same prefix with the trace slot
	// between the header and the kind field (tag 2 frames).
	tracedChunkPrefixLen = headerSize + traceSize + kindSize + 8
	// tenantChunkPrefixLen is the tag-3 prefix: tenant slot, then trace
	// slot, then kind + offset.
	tenantChunkPrefixLen = headerSize + tenantSize + traceSize + kindSize + 8
)

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

// readReqPool recycles the ReadFile structs ranged fast-path requests
// decode into: a striped read issues one request per segment, so the
// request decode must stay off the per-segment allocation budget the
// same way chunks do. Msg.Release feeds it. Legacy 28-byte bodies keep
// decoding to a plain ReadFile value (callers compare those payloads by
// interface equality).
var readReqPool = sync.Pool{New: func() any { return new(ReadFile) }}

// chunkFrame is the reusable scratch for a single-writev chunk write: the
// frame prefix (15 bytes untraced, 31 with the trace slot, 35 with the
// tenant + trace slots) plus a two-element net.Buffers that lets the data
// slice go to the kernel without being copied into a contiguous frame.
// bufs is rebuilt from arr on every use because Buffers.WriteTo consumes
// the slice it writes (advancing it to zero length AND zero capacity) —
// an append into the consumed slice would reallocate per call.
type chunkFrame struct {
	prefix [tenantChunkPrefixLen]byte
	arr    [2][]byte
	bufs   net.Buffers
}

var chunkFramePool = sync.Pool{New: func() any { return new(chunkFrame) }}

// WriteChunk sends one FileChunk frame. On the fast path it is the
// zero-allocation hot loop of every data stream: the 15-byte prefix and
// the caller's data slice go out as a single writev (net.Buffers), so
// each chunk costs one syscall and zero copies. data is only read, never
// retained, so the caller may reuse its buffer immediately. With the fast
// path disabled it degrades to the gob frame Write would produce.
func (c *Conn) WriteChunk(offset int64, data []byte) error {
	if !c.fastWrite.Load() {
		return c.writeGob(KindFileChunk, FileChunk{Offset: offset, Data: data})
	}
	if t := c.tenantID(); t.Valid() {
		return c.writeChunkTenant(t, trace.SpanContext{}, offset, data)
	}
	body := kindSize + 8 + len(data)
	if body > MaxFrame {
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	f := chunkFramePool.Get().(*chunkFrame)
	binary.BigEndian.PutUint32(f.prefix[0:4], uint32(body))
	f.prefix[4] = byte(CodecBinary)
	binary.BigEndian.PutUint16(f.prefix[5:7], uint16(KindFileChunk))
	binary.BigEndian.PutUint64(f.prefix[7:15], uint64(offset))
	if err := c.writevChunk(f, f.prefix[:chunkPrefixLen], data); err != nil {
		return err
	}
	codecMet.Load().txBinary.Inc()
	return nil
}

// WriteChunkTraced is WriteChunk with the span context tc in the frame's
// trace slot (codec tag 2), so the serving RM's stream span and the
// client's segment span share one trace. A zero tc degrades to the
// untraced WriteChunk; the traced path keeps the zero-allocation
// single-writev contract (the trace slot lives in the pooled prefix).
func (c *Conn) WriteChunkTraced(tc trace.SpanContext, offset int64, data []byte) error {
	if !tc.Valid() {
		return c.WriteChunk(offset, data)
	}
	if !c.fastWrite.Load() {
		return c.writeGobMsg(Msg{Kind: KindFileChunk, Payload: FileChunk{Offset: offset, Data: data}, Trace: tc})
	}
	if t := c.tenantID(); t.Valid() {
		return c.writeChunkTenant(t, tc, offset, data)
	}
	body := traceSize + kindSize + 8 + len(data)
	if body > MaxFrame {
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	f := chunkFramePool.Get().(*chunkFrame)
	binary.BigEndian.PutUint32(f.prefix[0:4], uint32(body))
	f.prefix[4] = byte(CodecBinaryTraced)
	binary.BigEndian.PutUint64(f.prefix[5:13], uint64(int64(tc.Trace)))
	binary.BigEndian.PutUint64(f.prefix[13:21], tc.Span)
	binary.BigEndian.PutUint16(f.prefix[21:23], uint16(KindFileChunk))
	binary.BigEndian.PutUint64(f.prefix[23:31], uint64(offset))
	if err := c.writevChunk(f, f.prefix[:tracedChunkPrefixLen], data); err != nil {
		return err
	}
	codecMet.Load().txTraced.Inc()
	return nil
}

// WriteReadReq sends one (possibly ranged) ReadFile request. It is the
// per-segment control frame of a striped read, so the fast path keeps it
// at zero allocations: the payload rides a pooled *ReadFile, and boxing a
// pointer into the payload interface does not allocate the way boxing the
// 5-field struct value would. A zero tc degrades to the untraced frame;
// with the fast path disabled it degrades to the gob frame Write would
// produce (gob sees the plain value — pointers need no registration).
func (c *Conn) WriteReadReq(tc trace.SpanContext, req ReadFile) error {
	if !c.fastWrite.Load() {
		if tc.Valid() {
			return c.writeGobMsg(Msg{Kind: KindReadFile, Payload: req, Trace: tc})
		}
		return c.writeGob(KindReadFile, req)
	}
	rq := readReqPool.Get().(*ReadFile)
	*rq = req
	var err error
	if tc.Valid() {
		err = c.WriteTraced(tc, KindReadFile, rq)
	} else {
		err = c.Write(KindReadFile, rq)
	}
	*rq = ReadFile{}
	readReqPool.Put(rq)
	return err
}

// writeChunkTenant sends one FileChunk frame under codec tag 3: the
// tenant slot, the trace slot (zero when untraced), then the binary-v1
// chunk body. Same pooled single-writev discipline as the untagged
// paths, so a tenant-stamped connection's data plane stays at zero
// allocations per chunk.
func (c *Conn) writeChunkTenant(t ids.TenantID, tc trace.SpanContext, offset int64, data []byte) error {
	body := tenantSize + traceSize + kindSize + 8 + len(data)
	if body > MaxFrame {
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	f := chunkFramePool.Get().(*chunkFrame)
	binary.BigEndian.PutUint32(f.prefix[0:4], uint32(body))
	f.prefix[4] = byte(CodecBinaryTenant)
	binary.BigEndian.PutUint32(f.prefix[5:9], uint32(int32(t)))
	binary.BigEndian.PutUint64(f.prefix[9:17], uint64(int64(tc.Trace)))
	binary.BigEndian.PutUint64(f.prefix[17:25], tc.Span)
	binary.BigEndian.PutUint16(f.prefix[25:27], uint16(KindFileChunk))
	binary.BigEndian.PutUint64(f.prefix[27:35], uint64(offset))
	if err := c.writevChunk(f, f.prefix[:tenantChunkPrefixLen], data); err != nil {
		return err
	}
	codecMet.Load().txTenant.Inc()
	return nil
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

// appendBinary appends the binary-v1 body (kind + payload) for one
// eligible (kind, payload) pair to b. It reports false when the pair is
// not fast-path encodable, leaving b's length unchanged.
func appendBinary(b []byte, kind Kind, payload any) ([]byte, bool) {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, uint16(kind))
	switch kind {
	case KindFileEnd:
		p, ok := payload.(FileEnd)
		if !ok {
			return b[:start], false
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
		// The length field is appended only for ranged reads, keeping
		// whole-file request frames byte-identical to the pre-ranged
		// layout (see the layout comment at the top of this file).
		if p.Length > 0 {
			b = binary.BigEndian.AppendUint64(b, uint64(p.Length))
		}
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

// decodeBinary parses a binary-v1 body. bp is the pooled buffer backing
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
		switch len(p) {
		case 28: // legacy whole-file layout: decode to a plain value
			return Msg{Kind: kind, Payload: ReadFile{
				File:      ids.FileID(int32(binary.BigEndian.Uint32(p[:4]))),
				ChunkSize: int(int64(binary.BigEndian.Uint64(p[4:12]))),
				Offset:    int64(binary.BigEndian.Uint64(p[12:20])),
				Request:   ids.RequestID(int64(binary.BigEndian.Uint64(p[20:28]))),
			}}, false, nil
		case 36: // ranged layout with the trailing length field
			rq := readReqPool.Get().(*ReadFile)
			rq.File = ids.FileID(int32(binary.BigEndian.Uint32(p[:4])))
			rq.ChunkSize = int(int64(binary.BigEndian.Uint64(p[4:12])))
			rq.Offset = int64(binary.BigEndian.Uint64(p[12:20]))
			rq.Request = ids.RequestID(int64(binary.BigEndian.Uint64(p[20:28])))
			rq.Length = int64(binary.BigEndian.Uint64(p[28:36]))
			return Msg{Kind: kind, Payload: rq, rreq: rq}, false, nil
		}
		return badLen()
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
