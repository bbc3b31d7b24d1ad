// The one codec of the ECNP wire protocol. The frame prelude carries a
// one-byte codec tag and exactly one value of it exists: tag 4, a
// fixed-layout big-endian encoding in which every message kind is
// described once — its arm of coder.payload below lists the kind's fields
// in wire order, and one cursor walks that list to encode and to decode.
// No frame keeps state for the next, so a connection can be taken over at
// any message boundary and a refused frame leaves the stream in step.
//
// Body layout (big-endian throughout):
//
//	[0]    uint8 flags: bit 0 = tenant slot present, bit 1 = trace slot
//	       present; any other bit set is a CodecError
//	[..]   int32 tenant ID (ids.TenantID)            — only with bit 0
//	[..]   int64 trace ID (ids.RequestID) | uint64 span ID — only with bit 1
//	[..]   uint16 kind
//	[..]   payload, fields in wire order per kind:
//	  -- mapper operations and replies (DFSC/RM → MM) --
//	  Error:            code u8 | text (rest of body, UTF-8)
//	  RegisterRM:       info RMInfo | files: n u32, file i32 × n
//	  Lookup, RMsWithout, ReplicaCount:
//	                    file i32                             (wire.FileRef)
//	  AddReplica, RemoveReplica:
//	                    file i32 | rm i32                    (wire.ReplicaRef)
//	  BeginReplication: file i32 | rm i32 | maxTotal i64
//	  EndReplication:   file i32 | rm i32 | commit u8
//	  RMs:              (empty; the payload is nil)
//	  Ack:              (empty)
//	  RMList:           rm i32 × n (rest of body; n = 0 decodes to a nil slice)
//	  RMInfoList:       infos: n u32, RMInfo × n
//	  Count:            n i64
//	  -- provider operations (DFSC/peer RM → RM); the first five are one
//	  -- open's negotiation, 2·holders + 6 frames per open --
//	  CFP:              request i64 | file i32 | bitrate f64 | durationSec f64 | tenant i32
//	  Bid:              rm i32 | rem f64 | trend f64 | occBias f64 | req f64 |
//	                    hasReplica u8 | assured f64 | ceil f64 | tenantShare f64
//	  Open:             request i64 | file i32 | bitrate f64 | durationSec f64 |
//	                    firm u8 | tenant i32                 (ecnp.OpenRequest)
//	  OpenResult:       ok u8 | code u8 | reason (rest of body, UTF-8)
//	  Close:            request i64                          (wire.CloseReq)
//	  OfferReplica:     replication i64 | file i32 | sizeBytes i64 | bitrate f64 |
//	                    durationSec f64 | rate f64 | source i32 (ecnp.ReplicaOffer)
//	  OfferReply:       accepted u8
//	  FinishReplica:    replication i64 | committed u8
//	  StoreFile:        file i32 | bitrate f64 | sizeBytes i64 | durationSec f64 |
//	                    tenant i32                           (ecnp.StoreRequest)
//	  -- data plane --
//	  ReadFile:         file i32 | chunkSize i64 | offset i64 | request i64 | length i64
//	                    (length 0 = stream to EOF)
//	  FileChunk:        offset u64 | data (rest of body, length implicit)
//	  FileEnd:          size u64 | checksum u64
//	  WriteFile:        file i32 | sizeBytes i64 | replication i64
//	  -- liveness --
//	  Heartbeat:        rm i32
//	  Keepalive:        request i64
//	  -- shard group (MM shard → MM shard) --
//	  ShardBeat:        shard i32
//	  ShardMirror:      op str | file i32 | rm i32 | maxTotal i64 | commit u8
//	  ShardHandoff:     from i32 | direction str | infos: n u32, RMInfo × n |
//	                    entries: n u32, ShardEntry × n
//	  -- nested records --
//	  RMInfo:           id i32 | capacity f64 | storageBytes i64 | addr str
//	  ShardEntry:       file i32 | rms: n u32, rm i32 × n
//
// A connection stamped with a tenant (Conn.SetTenant) sets bit 0 on every
// frame it writes; a write carrying a valid span context sets bit 1. An
// untenanted, untraced frame is the flags byte, the kind and the payload —
// one byte more than the payload's own layout.
//
// An f64 is the value's IEEE-754 bit pattern (math.Float64bits), so a
// negative Rem, a NaN and ±Inf arrive bit-exactly; a Go int travels as an
// i64; a u8 bool is 0 or 1 and any other byte is a CodecError, and so is
// a code u8 that names no ecnp.Refusal. A str is a
// u32 byte length and that many bytes. A counted list is a u32 element
// count and the elements; the decoder checks a count or a length against
// the bytes the body still holds before it sizes anything by it, so four
// hostile bytes cannot ask for a gigabyte. An empty list decodes to a nil
// slice. A body that ends inside its layout, or goes on behind it, is a
// CodecError too: each layout is canonical, one value, one encoding.
//
// Versioning: adding a kind, or a flag bit with its slot, moves no
// existing body; a reader that predates it refuses the frame with a typed
// CodecError ("unknown kind", "unknown flag bits"). Changing an existing
// body's layout bumps the codec tag instead of mutating the layout in
// place, and an unknown tag is a typed CodecError as well ("unknown codec
// tag") — tag 0 (gob), tags 2 and 3 (this body behind fixed slots) and
// tag 1 (Error and OpenResult without their code) are retired that way.
// No fleet is deployed, so no two tags are spoken at once.
//
// Buffer ownership: encode and decode both borrow scratch buffers from a
// sync.Pool. On the read side, a FileChunk's Data slice points INTO the
// pooled frame buffer; the Msg carries the loan and Msg.Release returns
// it — unless Conn.ReadInto received the data into the caller's own
// buffer. See Msg.Release for the contract.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
)

// Codec identifies a frame-body encoding (the one-byte tag in the frame
// header).
type Codec uint8

// CodecBinary is the one codec: a flags byte that says which optional
// slots (tenant, trace) precede the kind field, then the kind's layout.
const CodecBinary Codec = 4

// String implements fmt.Stringer for diagnostics.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// CodecError reports a frame the codec refused: an incoming one with an
// unknown codec tag, flag bit or kind, or a body that contradicts its
// kind's layout; or an outgoing one whose payload is not the type its
// kind carries. Match it with
//
//	var ce *wire.CodecError
//	if errors.As(err, &ce) { ... }
//
// The connection is still frame-synchronized after a CodecError (the
// whole body was consumed, or nothing was written), but callers should
// treat a refused incoming frame as a protocol mismatch and drop the
// connection.
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

// frame geometry.
const (
	// headerSize is the fixed frame prelude: 4-byte big-endian body
	// length followed by the 1-byte codec tag. The length excludes the
	// prelude itself.
	headerSize = 5
	// flagsSize is the flags byte every body starts with.
	flagsSize = 1
	// tenantSize is the optional tenant slot: the tenant ID (int32).
	tenantSize = 4
	// traceSize is the optional trace slot: trace ID (int64, an
	// ids.RequestID) + span ID (uint64).
	traceSize = 16
	// kindSize is the kind field; the payload follows it.
	kindSize = 2
	// maxChunkPrefixLen is everything in a FileChunk frame before the data
	// bytes when both slots are present: prelude + flags + tenant + trace
	// + kind + offset. An unslotted chunk's prefix is 16 bytes.
	maxChunkPrefixLen = headerSize + flagsSize + tenantSize + traceSize + kindSize + 8
)

// The flag bits of a body's first byte.
const (
	flagTenant byte = 1 << 0
	flagTrace  byte = 1 << 1
	knownFlags      = flagTenant | flagTrace
)

// appendFramePrefix lays down what every frame starts with: the prelude
// (length left zero for the caller to patch once the body is complete),
// the flags byte, and the slots the flags announce — the tenant slot when
// t is a real tenant, the trace slot when tc is a valid span context. The
// kind field and payload follow. It is the single writer of the header,
// shared by the control path (appendFrame) and the chunk path
// (WriteChunkTraced).
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

// appendFrame assembles one whole frame in b — prelude, flags and slots,
// kind, payload, the length sealed — and is the one encoder of every kind,
// under Write and WriteTorn alike (a chunk on the data path leaves through
// WriteChunkTraced, which builds the same bytes around a data slice it
// does not copy). A payload that is not the type kind carries is a
// *CodecError and a body past MaxFrame a *FrameTooLargeError; b comes back
// either way, so a caller that pooled it keeps whatever it grew to.
func appendFrame(b []byte, t ids.TenantID, tc trace.SpanContext, kind Kind, payload any) ([]byte, error) {
	c := coder{b: binary.BigEndian.AppendUint16(appendFramePrefix(b, t, tc), uint16(kind))}
	c.payload(kind, payload)
	if c.bad != "" {
		return c.b, &CodecError{Codec: CodecBinary, Kind: kind, Reason: c.bad}
	}
	return c.b, sealFrame(c.b, 0, kind)
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

// chunkPool recycles the FileChunk payload structs the decoder hands out,
// so a steady-state stream loop performs zero allocations per chunk.
// Msg.Release feeds it.
var chunkPool = sync.Pool{New: func() any { return new(FileChunk) }}

// readReqPool recycles the ReadFile structs requests decode into: a
// striped read issues one request per segment, so the request decode must
// stay off the per-segment allocation budget the same way chunks do.
// Msg.Release feeds it.
var readReqPool = sync.Pool{New: func() any { return new(ReadFile) }}

// fileEndPool recycles the FileEnd structs that end every stream, on both
// sides: WriteFileEnd boxes a pooled pointer (boxing the struct value
// would allocate), and a received FileEnd decodes into one that
// Msg.Release returns. A striped read ends one stream per range.
var fileEndPool = sync.Pool{New: func() any { return new(FileEnd) }}

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
// segment span share one trace. It is the zero-allocation hot loop of
// every data stream: the prefix — 16 bytes, plus the tenant and trace
// slots when present — is assembled in a pooled array and goes out with
// the caller's data slice as a single writev (net.Buffers), so each chunk
// costs one syscall and zero copies. data is only read, never retained, so
// the caller may reuse its buffer immediately.
func (c *Conn) WriteChunkTraced(tc trace.SpanContext, offset int64, data []byte) error {
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
	codecMet.Load().tx.Inc()
	return nil
}

// WriteReadReq sends one ReadFile request. It is the per-segment control
// frame of a striped read, so it stays at zero allocations: the payload
// rides a pooled *ReadFile, and boxing a pointer into the payload
// interface does not allocate the way boxing the 5-field struct value
// would.
func (c *Conn) WriteReadReq(tc trace.SpanContext, req ReadFile) error {
	rq := readReqPool.Get().(*ReadFile)
	*rq = req
	err := c.WriteTraced(tc, KindReadFile, rq)
	*rq = ReadFile{}
	readReqPool.Put(rq)
	return err
}

// WriteFileEnd ends a stream with its FileEnd frame carrying the span
// context tc (zero: untraced). Like WriteReadReq it rides a pooled
// payload, so it allocates nothing.
func (c *Conn) WriteFileEnd(tc trace.SpanContext, size int64, sum uint64) error {
	fe := fileEndPool.Get().(*FileEnd)
	fe.Size, fe.Checksum = size, sum
	err := c.WriteTraced(tc, KindFileEnd, fe)
	fileEndPool.Put(fe)
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

// coder is the cursor a payload's field list is walked with, in either
// direction: encoding, each field is appended to b; decoding, each field
// is consumed from the front of b. A layout is therefore written once, as
// the sequence of calls that walks it. Nothing here goes through an
// interface, reflection or a func value, so a coder lives on its caller's
// stack and a walk allocates only what a decoded value itself needs (its
// strings, its slices, its boxing into Msg.Payload).
type coder struct {
	b   []byte
	dec bool
	// bad is why the walk failed, "" while it has not: decoding, what is
	// wrong with the body; encoding, what is wrong with the payload. Once
	// it is set every later field decodes as zero.
	bad string
}

// fail records the first reason the walk cannot go on and, decoding,
// empties b, so the fields still to come find nothing to read.
func (c *coder) fail(reason string) {
	if c.bad == "" {
		c.bad = reason
	}
	if c.dec {
		c.b = nil
	}
}

// Why a body is refused; static, so that refusing one allocates only the
// CodecError.
const (
	badShort    = "body ends inside the kind's layout"
	badTrailing = "body goes on behind the kind's layout"
	badBool     = "bool byte is neither 0 nor 1"
	badRefusal  = "refusal code is not in ecnp's vocabulary"
	badCount    = "count or length exceeds the bytes left in the body"
)

// u32 moves one 32-bit word: v out when encoding, the word read back when
// decoding.
func (c *coder) u32(v uint32) uint32 {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint32(c.b, v)
		return v
	}
	if len(c.b) < 4 {
		c.fail(badShort)
		return 0
	}
	v = binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

// u64 moves one 64-bit word, as u32 does.
func (c *coder) u64(v uint64) uint64 {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, v)
		return v
	}
	if len(c.b) < 8 {
		c.fail(badShort)
		return 0
	}
	v = binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// i32 is a 32-bit integer field of any named type (the ids). Like every
// field helper it only reads *v when encoding: a payload's lists share
// their backing arrays with the sender, who may be encoding the same list
// on another connection.
func i32[T ~int32](c *coder, v *T) {
	if w := c.u32(uint32(int32(*v))); c.dec {
		*v = T(int32(w))
	}
}

// i64 is a 64-bit integer field: the 64-bit ids, sizes and offsets, a Go
// int widened to 64 bits, and the checksum's unsigned word.
func i64[T ~int64 | ~int | ~uint64](c *coder, v *T) {
	if w := c.u64(uint64(*v)); c.dec {
		*v = T(w)
	}
}

// f64 is a float field, carried as its IEEE-754 bit pattern so negative
// values, NaN payloads and ±Inf round-trip bit-exactly.
func f64[T ~float64](c *coder, v *T) {
	if w := c.u64(math.Float64bits(float64(*v))); c.dec {
		*v = T(math.Float64frombits(w))
	}
}

// flag is a bool field: one byte, 0 or 1, the only two the decoder
// accepts.
func (c *coder) flag(v *bool) {
	switch {
	case !c.dec && *v:
		c.b = append(c.b, 1)
	case !c.dec:
		c.b = append(c.b, 0)
	case len(c.b) < 1:
		c.fail(badShort)
	case c.b[0] > 1:
		c.fail(badBool)
	default:
		*v = c.b[0] == 1
		c.b = c.b[1:]
	}
}

// refusal is an ecnp.Refusal code field: one byte, refused decoding
// unless it names a code (or is zero, no refusal).
func (c *coder) refusal(v *ecnp.Refusal) {
	switch {
	case !c.dec:
		c.b = append(c.b, byte(*v))
	case len(c.b) < 1:
		c.fail(badShort)
	case ecnp.Refusal(c.b[0]) >= ecnp.NumRefusals:
		c.fail(badRefusal)
	default:
		*v = ecnp.Refusal(c.b[0])
		c.b = c.b[1:]
	}
}

// count moves the u32 in front of a string or a list: n out when
// encoding, the announced count back when decoding — refused there, before
// the caller sizes anything by it, unless that many elements of at least
// min bytes each fit in what is left of the body.
func (c *coder) count(n, min int) int {
	n = int(c.u32(uint32(n)))
	if c.dec && n > len(c.b)/min {
		c.fail(badCount)
		return 0
	}
	return n
}

// str is a string field: a u32 byte length and the bytes.
func (c *coder) str(v *string) {
	n := c.count(len(*v), 1)
	if c.dec {
		*v = string(c.b[:n])
		c.b = c.b[n:]
	} else {
		c.b = append(c.b, *v...)
	}
}

// tail is a string that is the rest of the body, its length implicit in
// the frame's: the last field of the three kinds that predate str.
func (c *coder) tail(v *string) {
	if c.dec {
		*v = string(c.b)
		c.b = nil
	} else {
		c.b = append(c.b, *v...)
	}
}

// i32s is a counted list of 32-bit ids.
func i32s[T ~int32](c *coder, v *[]T) {
	if n := c.count(len(*v), 4); c.dec && n > 0 {
		*v = make([]T, n)
	}
	for i := range *v {
		i32(c, &(*v)[i])
	}
}

// rmInfoMin is the least an RMInfo occupies (its address empty) and
// shardEntryMin the least a ShardEntry does (no replicas): what count
// holds a list of each against.
const (
	rmInfoMin     = 4 + 8 + 8 + 4
	shardEntryMin = 4 + 4
)

// rmInfo is the nested ecnp.RMInfo record.
func (c *coder) rmInfo(p *ecnp.RMInfo) {
	i32(c, &p.ID)
	f64(c, &p.Capacity)
	i64(c, &p.StorageBytes)
	c.str(&p.Addr)
}

// rmInfos is a counted list of RMInfo records.
func (c *coder) rmInfos(v *[]ecnp.RMInfo) {
	if n := c.count(len(*v), rmInfoMin); c.dec && n > 0 {
		*v = make([]ecnp.RMInfo, n)
	}
	for i := range *v {
		c.rmInfo(&(*v)[i])
	}
}

// shardEntries is a counted list of the nested ShardEntry record.
func (c *coder) shardEntries(v *[]ShardEntry) {
	if n := c.count(len(*v), shardEntryMin); c.dec && n > 0 {
		*v = make([]ShardEntry, n)
	}
	for i := range *v {
		i32(c, &(*v)[i].File)
		i32s(c, &(*v)[i].RMs)
	}
}

// take starts one kind's walk. Encoding, it is the payload to walk: in
// asserted to the kind's type T, handed over by value or by pointer (a
// sender that pools its payload passes the pointer, which boxes without
// allocating); anything else fails the walk. Decoding, it is T's zero
// value for the walk to fill.
func take[T any](c *coder, in any) (p T) {
	if c.dec {
		return p
	}
	switch v := in.(type) {
	case T:
		return v
	case *T:
		if v != nil {
			return *v
		}
	}
	c.mismatch(in)
	return p
}

// mismatch fails an encode whose payload is not what its kind carries.
func (c *coder) mismatch(in any) {
	c.fail(fmt.Sprintf("payload is a %T, which the kind does not carry", in))
}

// decoded reports that a decode has consumed the body exactly: the walk
// made a value worth handing back. (An encode has nothing to hand back,
// and payload refuses what a decode left over.)
func (c *coder) decoded() bool { return c.dec && c.bad == "" && len(c.b) == 0 }

// give ends one kind's walk: the filled value, boxed for Msg.Payload, once
// it is decoded; nil otherwise.
func give[T any](c *coder, p T) any {
	if c.decoded() {
		return p
	}
	return nil
}

// payload walks kind's payload layout — the protocol's one table: each arm
// names the type the kind carries and lists its fields in wire order.
// Encoding (dec false), it appends in's fields to b; decoding, it consumes
// them from b and returns the value they make. Either way a failed walk
// leaves the reason in bad. FileChunk's arm only ever encodes: decodeFrame
// lends a chunk the frame buffer instead of copying Data out of it.
func (c *coder) payload(kind Kind, in any) (out any) {
	switch kind {
	case KindError:
		p := take[Error](c, in)
		c.refusal(&p.Code)
		c.tail(&p.Text)
		out = give(c, p)
	case KindRegisterRM:
		p := take[RegisterRM](c, in)
		c.rmInfo(&p.Info)
		i32s(c, &p.Files)
		out = give(c, p)
	case KindLookup, KindRMsWithout, KindReplicaCount:
		p := take[FileRef](c, in)
		i32(c, &p.File)
		out = give(c, p)
	case KindAddReplica, KindRemoveReplica:
		p := take[ReplicaRef](c, in)
		i32(c, &p.File)
		i32(c, &p.RM)
		out = give(c, p)
	case KindBeginReplication:
		p := take[BeginReplication](c, in)
		i32(c, &p.File)
		i32(c, &p.RM)
		i64(c, &p.MaxTotal)
		out = give(c, p)
	case KindEndReplication:
		p := take[EndReplication](c, in)
		i32(c, &p.File)
		i32(c, &p.RM)
		c.flag(&p.Commit)
		out = give(c, p)
	case KindRMs:
		if !c.dec && in != nil {
			c.mismatch(in)
		}
	case KindAck:
		out = give(c, take[Ack](c, in))
	case KindRMList:
		p := take[RMList](c, in)
		// The list is the rest of the body with no count in front; a ragged
		// tail runs the last entry short.
		if c.dec && len(c.b) > 0 {
			p.RMs = make([]ids.RMID, (len(c.b)+3)/4)
		}
		for i := range p.RMs {
			i32(c, &p.RMs[i])
		}
		out = give(c, p)
	case KindRMInfoList:
		p := take[RMInfoList](c, in)
		c.rmInfos(&p.Infos)
		out = give(c, p)
	case KindCount:
		p := take[Count](c, in)
		i64(c, &p.N)
		out = give(c, p)
	case KindCFP:
		p := take[ecnp.CFP](c, in)
		i64(c, &p.Request)
		i32(c, &p.File)
		f64(c, &p.Bitrate)
		f64(c, &p.DurationSec)
		i32(c, &p.Tenant)
		out = give(c, p)
	case KindBid:
		p := take[selection.Bid](c, in)
		i32(c, &p.RM)
		f64(c, &p.Rem)
		f64(c, &p.Trend)
		f64(c, &p.OccBias)
		f64(c, &p.Req)
		c.flag(&p.HasReplica)
		f64(c, &p.Assured)
		f64(c, &p.Ceil)
		f64(c, &p.TenantShare)
		out = give(c, p)
	case KindOpen:
		p := take[ecnp.OpenRequest](c, in)
		i64(c, &p.Request)
		i32(c, &p.File)
		f64(c, &p.Bitrate)
		f64(c, &p.DurationSec)
		c.flag(&p.Firm)
		i32(c, &p.Tenant)
		out = give(c, p)
	case KindOpenResult:
		p := take[ecnp.OpenResult](c, in)
		c.flag(&p.OK)
		c.refusal(&p.Code)
		c.tail(&p.Reason)
		out = give(c, p)
	case KindClose:
		p := take[CloseReq](c, in)
		i64(c, &p.Request)
		out = give(c, p)
	case KindOfferReplica:
		p := take[ecnp.ReplicaOffer](c, in)
		i64(c, &p.Replication)
		i32(c, &p.File)
		i64(c, &p.SizeBytes)
		f64(c, &p.Bitrate)
		f64(c, &p.DurationSec)
		f64(c, &p.Rate)
		i32(c, &p.Source)
		out = give(c, p)
	case KindOfferReply:
		p := take[OfferReply](c, in)
		c.flag(&p.Accepted)
		out = give(c, p)
	case KindFinishReplica:
		p := take[FinishReplica](c, in)
		i64(c, &p.Replication)
		c.flag(&p.Committed)
		out = give(c, p)
	case KindStoreFile:
		p := take[ecnp.StoreRequest](c, in)
		i32(c, &p.File)
		f64(c, &p.Bitrate)
		i64(c, &p.SizeBytes)
		f64(c, &p.DurationSec)
		i32(c, &p.Tenant)
		out = give(c, p)
	case KindReadFile:
		p := take[ReadFile](c, in)
		i32(c, &p.File)
		i64(c, &p.ChunkSize)
		i64(c, &p.Offset)
		i64(c, &p.Request)
		i64(c, &p.Length)
		// A request decodes into a pooled struct (see readReqPool), so it is
		// handed back by pointer; Msg.Release returns it.
		if c.decoded() {
			rq := readReqPool.Get().(*ReadFile)
			*rq = p
			out = rq
		}
	case KindFileChunk:
		p := take[FileChunk](c, in)
		i64(c, &p.Offset)
		c.b = append(c.b, p.Data...)
	case KindFileEnd:
		p := take[FileEnd](c, in)
		i64(c, &p.Size)
		i64(c, &p.Checksum)
		// Pooled like a request (see fileEndPool); Msg.Release returns it.
		if c.decoded() {
			fe := fileEndPool.Get().(*FileEnd)
			*fe = p
			out = fe
		}
	case KindWriteFile:
		p := take[WriteFile](c, in)
		i32(c, &p.File)
		i64(c, &p.SizeBytes)
		i64(c, &p.Replication)
		out = give(c, p)
	case KindHeartbeat:
		p := take[Heartbeat](c, in)
		i32(c, &p.RM)
		out = give(c, p)
	case KindKeepalive:
		p := take[Keepalive](c, in)
		i64(c, &p.Request)
		out = give(c, p)
	case KindShardBeat:
		p := take[ShardBeat](c, in)
		i32(c, &p.Shard)
		out = give(c, p)
	case KindShardMirror:
		p := take[ShardMirror](c, in)
		c.str(&p.Op)
		i32(c, &p.File)
		i32(c, &p.RM)
		i64(c, &p.MaxTotal)
		c.flag(&p.Commit)
		out = give(c, p)
	case KindShardHandoff:
		p := take[ShardHandoff](c, in)
		i32(c, &p.From)
		c.str(&p.Direction)
		c.rmInfos(&p.Infos)
		c.shardEntries(&p.Entries)
		out = give(c, p)
	default:
		c.fail("unknown kind")
	}
	if c.dec && len(c.b) > 0 {
		c.fail(badTrailing)
	}
	return out
}

// decodeHead peels a body's head into msg — the flags byte and the slots
// it announces into Tenant and Trace, then Kind — and returns the payload
// bytes behind it. A head the body cannot hold, or an unknown flag bit,
// is a *CodecError.
func decodeHead(msg *Msg, body []byte) (rest []byte, err error) {
	if len(body) < flagsSize {
		return nil, &CodecError{Codec: CodecBinary, Reason: "body shorter than flags byte"}
	}
	flags, rest := body[0], body[flagsSize:]
	if flags&^knownFlags != 0 {
		return nil, &CodecError{Codec: CodecBinary, Reason: fmt.Sprintf("unknown flag bits %#02x", flags&^knownFlags)}
	}
	if flags&flagTenant != 0 {
		if len(rest) < tenantSize {
			return nil, &CodecError{Codec: CodecBinary, Reason: "body shorter than tenant slot"}
		}
		msg.Tenant = ids.TenantID(int32(binary.BigEndian.Uint32(rest)))
		rest = rest[tenantSize:]
	}
	if flags&flagTrace != 0 {
		if len(rest) < traceSize {
			return nil, &CodecError{Codec: CodecBinary, Reason: "body shorter than trace slot"}
		}
		msg.Trace.Trace = ids.RequestID(int64(binary.BigEndian.Uint64(rest)))
		msg.Trace.Span = binary.BigEndian.Uint64(rest[8:])
		rest = rest[traceSize:]
	}
	if len(rest) < kindSize {
		return nil, &CodecError{Codec: CodecBinary, Reason: "body shorter than kind field"}
	}
	msg.Kind = Kind(binary.BigEndian.Uint16(rest))
	return rest[kindSize:], nil
}

// decodeFrame parses one frame body: it peels the head (decodeHead) and
// walks the kind's layout over the rest. bp is the pooled buffer
// backing body: a FileChunk keeps its Data in place there instead of
// copying — the one decode written by hand — so its Msg carries the loan
// and retained is true: the caller must NOT putBuf it, Msg.Release will.
// Hostile input (an unknown flag bit or kind, a body that ends inside a
// slot or contradicts its layout) yields a typed *CodecError, never a
// panic.
func decodeFrame(body []byte, bp *[]byte) (msg Msg, retained bool, err error) {
	rest, err := decodeHead(&msg, body)
	if err != nil {
		return Msg{}, false, err
	}
	if msg.Kind == KindFileChunk {
		if len(rest) < 8 {
			return Msg{}, false, &CodecError{Codec: CodecBinary, Kind: msg.Kind, Reason: badShort}
		}
		ch := chunkPool.Get().(*FileChunk)
		ch.Offset = int64(binary.BigEndian.Uint64(rest))
		ch.Data = rest[8:]
		msg.Payload, msg.pooled, msg.chunk = ch, bp, ch
		return msg, true, nil
	}
	c := coder{b: rest, dec: true}
	msg.Payload = c.payload(msg.Kind, nil)
	if c.bad != "" {
		return Msg{}, false, &CodecError{Codec: CodecBinary, Kind: msg.Kind, Reason: c.bad}
	}
	switch p := msg.Payload.(type) {
	case *ReadFile:
		msg.rreq = p
	case *FileEnd:
		msg.fend = p
	}
	return msg, false, nil
}
