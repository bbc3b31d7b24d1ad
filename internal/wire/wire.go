// Package wire frames the ECNP protocol messages for TCP transport: each
// frame is a 4-byte big-endian body length, a 1-byte codec tag, and the
// body. One tag exists (1): a fixed big-endian layout per message kind
// behind a flags byte that announces the optional tenant and request-trace
// slots; codec.go lists every layout. Frames are independent (no state
// crosses from one to the next), so a connection can be taken over after
// any message boundary and a corrupted frame cannot poison the decoding of
// the next. A frame-size cap bounds memory against malformed peers.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
)

// MaxFrame bounds a single message, comfortably above the largest data
// chunk (256 KiB) plus headers.
const MaxFrame = 4 << 20

// Kind identifies the message type.
type Kind uint16

// Control-plane and data-plane message kinds.
const (
	KindError Kind = iota
	// Mapper operations (DFSC/RM → MM).
	KindRegisterRM
	KindLookup
	KindRMsWithout
	KindAddReplica
	KindRemoveReplica
	KindBeginReplication
	KindEndReplication
	KindReplicaCount
	KindRMs
	// Mapper replies.
	KindAck
	KindRMList
	KindRMInfoList
	KindCount
	// Provider operations (DFSC/peer RM → RM).
	KindCFP
	KindBid
	KindOpen
	KindOpenResult
	KindClose
	KindOfferReplica
	KindOfferReply
	KindFinishReplica
	KindStoreFile
	// Data plane.
	KindReadFile
	KindFileChunk
	KindFileEnd
	KindWriteFile
	// Liveness (RM → MM) and reservation-lease keepalive (DFSC → RM).
	KindHeartbeat
	KindKeepalive
	// Shard-group control plane (MM shard → MM shard).
	KindShardBeat
	KindShardMirror
	KindShardHandoff
)

// kindNames is the package-level name table: Kind.String sits on the
// telemetry-label path of every request, so it must not rebuild (or
// allocate) a map per call.
var kindNames = [...]string{
	KindError: "Error", KindRegisterRM: "RegisterRM", KindLookup: "Lookup",
	KindRMsWithout: "RMsWithout", KindAddReplica: "AddReplica",
	KindRemoveReplica: "RemoveReplica", KindReplicaCount: "ReplicaCount",
	KindBeginReplication: "BeginReplication", KindEndReplication: "EndReplication",
	KindRMs: "RMs", KindAck: "Ack", KindRMList: "RMList",
	KindRMInfoList: "RMInfoList", KindCount: "Count", KindCFP: "CFP",
	KindBid: "Bid", KindOpen: "Open", KindOpenResult: "OpenResult",
	KindClose: "Close", KindOfferReplica: "OfferReplica",
	KindOfferReply: "OfferReply", KindFinishReplica: "FinishReplica",
	KindStoreFile: "StoreFile",
	KindReadFile:  "ReadFile", KindFileChunk: "FileChunk", KindFileEnd: "FileEnd",
	KindWriteFile: "WriteFile",
	KindHeartbeat: "Heartbeat", KindKeepalive: "Keepalive",
	KindShardBeat: "ShardBeat", KindShardMirror: "ShardMirror",
	KindShardHandoff: "ShardHandoff",
}

// String implements fmt.Stringer for diagnostics. Known kinds return an
// interned constant (zero allocations).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint16(k))
}

// Msg is one framed message.
type Msg struct {
	Kind    Kind
	Payload any

	// Trace is the span context this frame carries, if any: the zero
	// value means "untraced". It rides the trace slot (flag bit 1).
	// Servers join it with trace.Tracer.StartChild.
	Trace trace.SpanContext

	// Tenant is the tenant identity this frame was sent under: the zero
	// value (ids.NoneTenant) means untenanted. It rides the tenant slot
	// (flag bit 0). Connections stamp it with Conn.SetTenant; servers
	// read it for per-tenant accounting.
	Tenant ids.TenantID

	// pooled is the frame buffer this message's payload borrows from
	// (FileChunk only: Data points into it; nil when the chunk was
	// received into ReadInto's dst); chunk is the pooled payload struct.
	// rreq is the pooled ReadFile a request decodes into, fend the pooled
	// FileEnd a stream's end decodes into. All are returned by Release.
	pooled *[]byte
	chunk  *FileChunk
	rreq   *ReadFile
	fend   *FileEnd
}

// Chunk extracts a received FileChunk payload, which is a pooled
// *FileChunk until Release. It reports false for any other payload.
func (m *Msg) Chunk() (*FileChunk, bool) {
	p, ok := m.Payload.(*FileChunk)
	return p, ok
}

// FileEnd extracts a received FileEnd payload: a copy of the pooled
// *FileEnd the frame decoded into, so it stays valid after Release. It
// reports false for any other payload.
func (m *Msg) FileEnd() (FileEnd, bool) {
	if p, ok := m.Payload.(*FileEnd); ok {
		return *p, true
	}
	return FileEnd{}, false
}

// Release returns a message's pooled resources (the frame buffer its
// FileChunk Data points into and the FileChunk struct itself, or the
// ReadFile or FileEnd the frame decoded into). The borrowed-buffer
// contract for stream loops:
//
//   - After Read returns a KindFileChunk Msg, the chunk's Data is only
//     valid until Release — copy or consume it first, never retain it.
//   - After ReadInto(dst) returns one whose data fit in dst, Data is
//     dst[:len(Data)]: the bytes are the caller's and outlive Release,
//     which returns only the FileChunk struct. A chunk that did not fit
//     borrows a pooled buffer as under Read; compare the two with
//     Data's address when it matters.
//   - Call Release exactly once per received chunk when done; the Payload
//     is nilled so use-after-release fails loudly instead of silently
//     reading recycled bytes.
//   - Release on a Msg that borrowed nothing is a safe no-op, so loops
//     may release unconditionally.
//
// Skipping Release is a performance bug, not a correctness bug: the
// buffers fall to the GC and the stream loop allocates per chunk again.
func (m *Msg) Release() {
	if m.chunk == nil && m.pooled == nil && m.rreq == nil && m.fend == nil {
		return
	}
	if m.chunk != nil {
		m.chunk.Data = nil
		m.chunk.Offset = 0
		chunkPool.Put(m.chunk)
		m.chunk = nil
	}
	if m.rreq != nil {
		*m.rreq = ReadFile{}
		readReqPool.Put(m.rreq)
		m.rreq = nil
	}
	if m.fend != nil {
		*m.fend = FileEnd{}
		fileEndPool.Put(m.fend)
		m.fend = nil
	}
	if m.pooled != nil {
		putBuf(m.pooled)
		m.pooled = nil
	}
	m.Payload = nil
}

// Payload structs not already defined by the ecnp package.
type (
	// RegisterRM carries an RM registration.
	RegisterRM struct {
		Info  ecnp.RMInfo
		Files []ids.FileID
	}
	// FileRef names a file (Lookup, RMsWithout, ReplicaCount, ReadFile).
	FileRef struct {
		File ids.FileID
	}
	// ReplicaRef names a (file, RM) pair (Add/RemoveReplica).
	ReplicaRef struct {
		File ids.FileID
		RM   ids.RMID
	}
	// BeginReplication reserves a pending replica (see ecnp.Mapper).
	BeginReplication struct {
		File     ids.FileID
		RM       ids.RMID
		MaxTotal int
	}
	// EndReplication resolves a reservation.
	EndReplication struct {
		File   ids.FileID
		RM     ids.RMID
		Commit bool
	}
	// RMList answers Lookup and RMsWithout.
	RMList struct {
		RMs []ids.RMID
	}
	// RMInfoList answers RMs.
	RMInfoList struct {
		Infos []ecnp.RMInfo
	}
	// Count answers ReplicaCount.
	Count struct {
		N int
	}
	// CloseReq releases a reservation.
	CloseReq struct {
		Request ids.RequestID
	}
	// OfferReply answers OfferReplica.
	OfferReply struct {
		Accepted bool
	}
	// FinishReplica finalizes a transfer at the destination.
	FinishReplica struct {
		Replication ids.ReplicationID
		Committed   bool
	}
	// ReadFile opens a data stream.
	ReadFile struct {
		File ids.FileID
		// ChunkSize is the server's streaming granularity hint in bytes.
		ChunkSize int
		// Offset is the byte position the stream starts at: 0 with no
		// Length reads the whole file.
		Offset int64
		// Request, when non-zero, names the QoS reservation this stream
		// serves; the server treats each chunk as implicit lease renewal.
		Request ids.RequestID
		// Length, when positive, bounds the stream to [Offset,
		// Offset+Length): the server replies with exactly that byte range
		// (clamped at EOF) and a FileEnd whose checksum covers only the
		// range. Zero (or negative) streams to EOF and is answered with
		// the whole-file checksum.
		Length int64
	}
	// WriteFile opens an inbound data stream: the sender follows with
	// FileChunk frames and a FileEnd, and the receiver stores the bytes
	// on its virtual disk. Replication identifies the transfer this
	// stream belongs to (0 for plain uploads).
	WriteFile struct {
		File        ids.FileID
		SizeBytes   int64
		Replication ids.ReplicationID
	}
	// FileChunk is one piece of streamed file data.
	FileChunk struct {
		Offset int64
		Data   []byte
	}
	// FileEnd terminates a stream with an integrity checksum.
	FileEnd struct {
		Size     int64
		Checksum uint64
	}
	// Ack is the empty success reply.
	Ack struct{}
	// Error carries a remote failure: its ecnp refusal code and text.
	Error struct {
		Code ecnp.Refusal
		Text string
	}
	// Heartbeat is an RM's periodic liveness beacon to the MM.
	Heartbeat struct {
		RM ids.RMID
	}
	// Keepalive explicitly renews a reservation lease at the serving RM.
	Keepalive struct {
		Request ids.RequestID
	}
	// ShardBeat is one MM shard's periodic liveness beacon to a peer
	// shard. Shard is the sender's ring index.
	ShardBeat struct {
		Shard int32
	}
	// ShardMirror replays one replica-map mutation from the shard that
	// served it (the key's primary) to a successor shard holding a mirror
	// of the mapping. Op selects the mutation; the remaining fields carry
	// its arguments (unused ones stay zero). The receiver applies the
	// mutation locally and never re-mirrors, so mirrors cannot loop.
	ShardMirror struct {
		// Op is the mutation name: "AddReplica", "RemoveReplica",
		// "BeginReplication" or "EndReplication".
		Op       string
		File     ids.FileID
		RM       ids.RMID
		MaxTotal int
		Commit   bool
	}
	// ShardEntry is one file → replica-set mapping inside a handoff batch.
	ShardEntry struct {
		File ids.FileID
		RMs  []ids.RMID
	}
	// ShardHandoff re-replicates a slice of the keyspace between MM
	// shards: a takeover pushes a dead shard's mappings to the next
	// successor so the replication factor recovers, and a heal pushes a
	// revived shard's keyspace back to it. Infos carries the registration
	// records the entries reference, so a freshly restarted (empty) shard
	// can accept the mappings. Application is idempotent — entries the
	// receiver already holds are skipped.
	ShardHandoff struct {
		// From is the sending shard's ring index; Direction is "takeover"
		// or "heal" (telemetry and diagnostics).
		From      int32
		Direction string
		Infos     []ecnp.RMInfo
		Entries   []ShardEntry
	}
)

// ChecksumBasis is the initial state of the running checksum every data
// stream carries: the CRC-32C of no bytes. A reader may thread one
// running state across byte-contiguous streams served by different
// replicas (the state chains), so a whole-file checksum still verifies.
const ChecksumBasis uint64 = 0

// castagnoliTable selects CRC-32C, the polynomial with a dedicated
// instruction on amd64 (SSE4.2) and arm64; hash/crc32 picks the hardware
// path, or slicing-8 where there is none.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// ChecksumUpdate folds data into a running CRC-32C state and returns the
// new state. It is the one data-integrity checksum of the stack (stream
// ends, per-range stripe sums, upload verification, vdisk's whole-file
// sum). The 32-bit state rides the uint64 slot FileEnd always carried, so
// no frame layout knows which algorithm fills it — but both ends must
// agree on it: a peer folding anything else fails every stream with
// "checksum mismatch". In hardware the fold runs at ~20 GB/s — 25× what
// a byte-serial hash such as FNV-1a manages — which is what lets every
// delivered byte be verified without the check being the read path's
// bottleneck.
func ChecksumUpdate(sum uint64, data []byte) uint64 {
	return uint64(crc32.Update(uint32(sum), castagnoliTable, data))
}

// RemoteError is an error the peer *served* as a KindError reply: the RPC
// round trip itself completed, so the connection stays healthy and
// reusable. Callers distinguish it from transport failures with
//
//	var re wire.RemoteError
//	if errors.As(err, &re) { ... }
//
// (or transport.IsRemote), never by matching the error text. A served
// refusal unwraps to its code, so errors.Is matches it as in process.
type RemoteError struct {
	// Code is the peer's ecnp refusal, or zero for any other error.
	Code ecnp.Refusal
	// Text is the peer's diagnostic message.
	Text string
}

// Error implements error. The "wire: remote error:" prefix is kept stable
// for log readability only; programmatic classification must use errors.As.
func (e RemoteError) Error() string { return "wire: remote error: " + e.Text }

// Unwrap exposes the refusal code to errors.Is, or nothing without one.
func (e RemoteError) Unwrap() error {
	if e.Code == 0 {
		return nil
	}
	return e.Code
}

// ServedError decodes a KindError frame into the RemoteError it serves,
// or "malformed error payload" when the frame carries no Error. Every
// reader of a reply or a stream decodes served errors here.
func ServedError(m Msg) RemoteError {
	if e, ok := m.Payload.(Error); ok {
		return RemoteError(e)
	}
	return RemoteError{Text: "malformed error payload"}
}

// FrameTooLargeError reports a frame-size cap violation: an outgoing
// message that encoded past MaxFrame, or an incoming header announcing a
// body past the cap (a malformed or hostile peer). Match it with
//
//	var fe *wire.FrameTooLargeError
//	if errors.As(err, &fe) { ... }
//
// so transport and telemetry can classify cap violations apart from
// generic connection failures.
type FrameTooLargeError struct {
	// Kind is the message kind for outgoing violations; outgoing is
	// false (and Kind zero) for incoming ones, where the frame was
	// rejected before decoding.
	Kind Kind
	// Size is the offending frame's body size in bytes.
	Size int64
	// Cap is the limit that was exceeded (MaxFrame).
	Cap int64
	// Outgoing distinguishes encode-side from read-side violations.
	Outgoing bool
}

// Error implements error.
func (e *FrameTooLargeError) Error() string {
	if e.Outgoing {
		return fmt.Sprintf("wire: %v frame of %d bytes exceeds cap %d", e.Kind, e.Size, e.Cap)
	}
	return fmt.Sprintf("wire: incoming frame of %d bytes exceeds cap %d", e.Size, e.Cap)
}

// deadliner is the deadline surface of net.Conn (and net.Pipe).
type deadliner interface {
	SetDeadline(time.Time) error
}

// writeDeadliner is the write-side deadline surface of net.Conn.
type writeDeadliner interface {
	SetWriteDeadline(time.Time) error
}

// Conn frames messages over a reliable byte stream. Reads and writes are
// independently serialized, so one goroutine may stream reads while another
// writes.
type Conn struct {
	wmu sync.Mutex
	rmu sync.Mutex
	rw  io.ReadWriter
	// wt, guarded by wmu, arms a fresh write deadline per frame (servers
	// use it so a stalled reader cannot wedge a handler goroutine).
	wt time.Duration
	// ra, guarded by rmu, is ReadInto's read-ahead: bytes taken from the
	// stream and not yet handed out as a frame sit in ra[rpos:rend].
	// ReadInto fills it with a single read of the stream, so a control
	// frame — header and body — arrives in one read(2) where
	// header-then-body took two. It lives in the Conn (a local array would
	// escape through the io.Reader call and cost one heap allocation per
	// frame), and it belongs to ReadInto alone: everything else that asks
	// whether the stream is idle must ask Buffered too, because these
	// bytes are no longer in the socket.
	ra         [readAhead]byte
	rpos, rend int
	// tenant, when non-zero, is the ids.TenantID stamped on every
	// outgoing frame, which gains the tenant slot. Per-connection (not
	// per-call) because a client acts for exactly one tenant — stamping
	// at dial time keeps every write path's signature and allocation
	// profile unchanged.
	tenant atomic.Int32
}

// NewConn wraps a byte stream (normally a *net.TCPConn).
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// SetTenant stamps the tenant identity on every frame written from now
// on, in the tenant slot. ids.NoneTenant (the default) restores
// untenanted framing. Safe to call concurrently with traffic.
func (c *Conn) SetTenant(t ids.TenantID) { c.tenant.Store(int32(t)) }

// tenantID loads the stamped tenant (the write paths' per-frame check).
func (c *Conn) tenantID() ids.TenantID { return ids.TenantID(c.tenant.Load()) }

// SetWriteTimeout arms a rolling per-frame write deadline: every Write
// gets d from its start to reach the kernel, independent of how long the
// connection has been open. Zero (the default) disables it. It is a no-op
// on streams without deadline support.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	c.wt = d
	c.wmu.Unlock()
}

// armWriteDeadlineLocked arms the rolling per-frame write deadline when
// one is configured. Caller holds wmu.
func (c *Conn) armWriteDeadlineLocked() {
	if c.wt > 0 {
		if wd, ok := c.rw.(writeDeadliner); ok {
			wd.SetWriteDeadline(time.Now().Add(c.wt))
		}
	}
}

// Write sends one message: WriteTraced with no span context.
func (c *Conn) Write(kind Kind, payload any) error {
	return c.WriteTraced(trace.SpanContext{}, kind, payload)
}

// WriteTraced sends one message carrying the span context tc (zero:
// untraced), so the receiving server can join the sender's trace. The
// frame leaves as a single write — header and body are assembled in one
// pooled buffer (chunks: one writev via WriteChunkTraced) — so a frame
// costs one syscall, not two, and no allocation. A payload that is not the
// type kind carries is refused with a *CodecError and nothing is written.
func (c *Conn) WriteTraced(tc trace.SpanContext, kind Kind, payload any) error {
	if kind == KindFileChunk {
		switch p := payload.(type) {
		case FileChunk:
			return c.WriteChunkTraced(tc, p.Offset, p.Data)
		case *FileChunk:
			return c.WriteChunkTraced(tc, p.Offset, p.Data)
		}
	}
	bp := getBuf(96)
	frame, err := appendFrame((*bp)[:0], c.tenantID(), tc, kind, payload)
	if err == nil {
		err = c.writeFrame(frame, kind)
	}
	*bp = frame // adopt the (possibly regrown) backing array for the pool
	putBuf(bp)
	if err == nil {
		codecMet.Load().tx.Inc()
	}
	return err
}

// writeFrame pushes one fully assembled frame to the stream under the
// write lock and per-frame deadline.
func (c *Conn) writeFrame(frame []byte, kind Kind) error {
	c.wmu.Lock()
	c.armWriteDeadlineLocked()
	_, err := c.rw.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("wire: writing %v frame: %w", kind, err)
	}
	return nil
}

// WriteTorn writes a deliberately truncated frame: a header declaring the
// full body length followed by only half the body bytes. The peer blocks
// on the missing bytes until the connection drops, then surfaces an EOF
// mid-frame — the exact shape of a server crashing mid-write. It exists
// for the fault-injection substrate (faults.PartialWrite) and its tests;
// no production path calls it. The caller must drop the connection
// afterwards: the stream is unframeable from here on.
func (c *Conn) WriteTorn(kind Kind, payload any) error {
	// The frame is the one Write would have sent, outgoing cap included: a
	// torn frame must still be one the reader would have accepted, so the
	// fault it injects is "peer died mid-write", never "peer sent an
	// oversized frame".
	bp := getBuf(96)
	frame, err := appendFrame((*bp)[:0], c.tenantID(), trace.SpanContext{}, kind, payload)
	if err == nil {
		c.wmu.Lock()
		_, err = c.rw.Write(frame[:headerSize+(len(frame)-headerSize)/2])
		c.wmu.Unlock()
		if err != nil {
			err = fmt.Errorf("wire: writing torn %v frame: %w", kind, err)
		}
	}
	*bp = frame
	putBuf(bp)
	return err
}

// readAhead is the size of a Conn's read-ahead. A per-open control frame
// is 12 to 90 bytes and the largest fixed layout under 200, so any of them
// — and a pipelined neighbour — fits; a data chunk's body is hundreds of
// times larger and is read straight into its own buffer, so a bigger
// read-ahead would only mean a bigger copy at the head of every chunk.
const readAhead = 512

// Buffered reports how many bytes ReadInto has taken from the stream without
// yet returning them as a message. On a request/response connection at
// rest it is zero; anything else is bytes the peer sent unasked, exactly
// as if they were still waiting in the socket (the transport pool's
// checkout probe counts both).
func (c *Conn) Buffered() int {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.rend - c.rpos
}

// fill makes k bytes available at ra[rpos:] — a frame header, or the
// head of a body whose header is consumed; k is at most the header or
// the chunk prefix, and never more than the frame still holds. It reads
// the stream only when the read-ahead holds fewer, and then asks for as
// much as the read-ahead has room for: whatever followed in the same
// segment comes with it. Its errors are io.ReadFull's on those k bytes:
// io.EOF when the stream ends before the first of them,
// io.ErrUnexpectedEOF inside them, anything else as the stream reported
// it. Caller holds rmu.
func (c *Conn) fill(k int) error {
	if c.rend-c.rpos >= k {
		return nil
	}
	// Fewer than k bytes move; the read below then has the rest of the array.
	c.rend = copy(c.ra[:], c.ra[c.rpos:c.rend])
	c.rpos = 0
	for c.rend < k {
		n, err := c.rw.Read(c.ra[c.rend:])
		c.rend += n
		if err != nil && c.rend < k {
			if err == io.EOF && c.rend > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readBody fills body with the frame's bytes: first whatever the
// read-ahead already holds of them, then — only for a body that did not
// fit — straight from the stream into body, with nothing read past the
// frame's end. Its errors are io.ReadFull's on a body: io.EOF when the
// stream ends with none of a non-empty body delivered,
// io.ErrUnexpectedEOF when it ends inside it. Caller holds rmu.
func (c *Conn) readBody(body []byte) error {
	have := copy(body, c.ra[c.rpos:c.rend])
	c.rpos += have
	if have == len(body) {
		return nil
	}
	_, err := io.ReadFull(c.rw, body[have:])
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Read receives one message: ReadInto with no destination.
func (c *Conn) Read() (Msg, error) { return c.ReadInto(nil) }

// ReadInto receives one message. A frame that fits the read-ahead — every
// control frame — costs one read of the stream, and none at all when it
// arrived behind its predecessor; a larger body is read straight into its
// buffer. That buffer is dst when the frame is a FileChunk whose data
// fits in it: the data lands there and nowhere else, and the returned
// chunk's Data aliases dst. Any other frame — or any frame at all when
// dst is empty — lands in a pooled buffer: control frames decode out of
// it and return it immediately; FileChunk frames lend it to the returned
// Msg (Data points into it) until Msg.Release — see the borrowed-buffer
// contract there. What a stream holds, not dst, decides the messages and
// the errors: hostile input surfaces typed errors (*FrameTooLargeError
// for an oversized declared length, *CodecError for unknown tags or
// malformed bodies), never a panic.
func (c *Conn) ReadInto(dst []byte) (Msg, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if err := c.fill(headerSize); err != nil {
		return Msg{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(c.ra[c.rpos:])
	codec := Codec(c.ra[c.rpos+4])
	c.rpos += headerSize
	if n > MaxFrame {
		return Msg{}, &FrameTooLargeError{Size: int64(n), Cap: MaxFrame}
	}
	if len(dst) > 0 && codec == CodecBinary {
		if msg, into, err := c.chunkInto(dst, int(n)); into {
			if err != nil {
				return Msg{}, err
			}
			codecMet.Load().rx.Inc()
			return msg, nil
		}
	}
	bp := getBuf(int(n))
	body := (*bp)[:n]
	if err := c.readBody(body); err != nil {
		putBuf(bp)
		return Msg{}, fmt.Errorf("wire: reading body: %w", err)
	}
	if codec != CodecBinary {
		putBuf(bp)
		return Msg{}, &CodecError{Codec: codec, Reason: "unknown codec tag"}
	}
	msg, retained, err := decodeFrame(body, bp)
	if !retained {
		putBuf(bp)
	}
	if err != nil {
		return Msg{}, err
	}
	codecMet.Load().rx.Inc()
	return msg, nil
}

// chunkInto receives a body of n bytes into dst when it is a well-formed
// FileChunk whose data fits: it takes as much of the body as the longest
// chunk prefix (flags, slots, kind, offset) into the read-ahead, decodes
// the head as decodeFrame would, and reads the data — what the read-ahead
// already holds of it, then the rest straight from the stream — into dst.
// For anything else it reports false having consumed nothing, and the
// body takes ReadInto's pooled path, which returns what it always did (a
// control frame, a chunk too large for dst, or the CodecError of a
// malformed head). An error while the body is being read is reported as
// that path would report it. Caller holds rmu.
func (c *Conn) chunkInto(dst []byte, n int) (msg Msg, into bool, err error) {
	peek := min(n, maxChunkPrefixLen-headerSize)
	if err := c.fill(peek); err != nil {
		return Msg{}, true, fmt.Errorf("wire: reading body: %w", err)
	}
	rest, err := decodeHead(&msg, c.ra[c.rpos:c.rpos+peek])
	if err != nil || msg.Kind != KindFileChunk || len(rest) < 8 {
		return Msg{}, false, nil
	}
	pre := peek - len(rest) + 8
	if n-pre > len(dst) {
		return Msg{}, false, nil
	}
	c.rpos += pre
	data := dst[:n-pre]
	if err := c.readBody(data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the prefix was delivered
		}
		return Msg{}, true, fmt.Errorf("wire: reading body: %w", err)
	}
	ch := chunkPool.Get().(*FileChunk)
	ch.Offset = int64(binary.BigEndian.Uint64(rest))
	ch.Data = data
	msg.Payload, msg.chunk = ch, ch
	return msg, true, nil
}

// Call performs a synchronous request/response round trip: CallTraced
// with no span context.
func (c *Conn) Call(kind Kind, payload any) (Msg, error) {
	return c.CallTraced(trace.SpanContext{}, kind, payload)
}

// CallTraced performs a synchronous request/response round trip with the
// span context tc (zero: untraced) stamped on the request frame (see
// WriteTraced). A KindError reply is surfaced as a RemoteError.
func (c *Conn) CallTraced(tc trace.SpanContext, kind Kind, payload any) (Msg, error) {
	if err := c.WriteTraced(tc, kind, payload); err != nil {
		return Msg{}, err
	}
	reply, err := c.Read()
	if err != nil {
		return Msg{}, err
	}
	if reply.Kind == KindError {
		return Msg{}, ServedError(reply)
	}
	return reply, nil
}

// CallDeadline is Call bounded by ctx and by an absolute deadline (zero:
// none) — the one bounded round trip, under every transport.Client.Call.
// The earlier of deadline and ctx's own is armed on
// the stream once, at the start, so a stalled or unreachable peer cannot
// block the caller past it; a call with neither clears instead, so nothing
// an earlier user of the connection left armed can reach this one. Only a
// context that can be canceled costs more than that: a callback that
// expires the stream's deadline the moment ctx is done. With no deadline
// and a never-canceled context the call degenerates to Call. A span
// context attached to ctx (trace.NewContext) is stamped on the request
// frame, so trace propagation flows through every transport.Client.Call
// without widening its signature.
//
// The connection is left with no deadline armed on return, whatever the
// outcome and however the cancellation raced the reply (see callGuard):
// the pool's checkout probe fails a connection whose deadline has passed,
// and streams run on pooled connections unbounded. A call aborted by its
// deadline or by ctx leaves the stream desynchronized, so the caller must
// discard it (the transport pool does exactly that).
func (c *Conn) CallDeadline(ctx context.Context, deadline time.Time, kind Kind, payload any) (Msg, error) {
	if err := ctx.Err(); err != nil {
		return Msg{}, err
	}
	if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
		deadline = dl
	}
	if d, ok := c.rw.(deadliner); ok {
		d.SetDeadline(deadline)
		if ctx.Done() != nil {
			g := &callGuard{stream: d}
			stop := context.AfterFunc(ctx, g.expire)
			defer func() {
				stop()
				g.finish()
			}()
		} else if !deadline.IsZero() {
			defer d.SetDeadline(time.Time{})
		}
	}
	msg, err := c.CallTraced(trace.FromContext(ctx), kind, payload)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Prefer the context's verdict over the raw i/o timeout error.
			return Msg{}, fmt.Errorf("wire: call %v: %w", kind, cerr)
		}
		// An i/o timeout once the armed deadline has passed is that
		// deadline's doing, whether it came from the caller or from ctx
		// (whose own timer can observe expiry a hair after the socket's).
		if errors.Is(err, os.ErrDeadlineExceeded) && !deadline.IsZero() && !time.Now().Before(deadline) {
			return Msg{}, fmt.Errorf("wire: call %v: %w", kind, context.DeadlineExceeded)
		}
	}
	return msg, err
}

// callGuard makes a call's cancellation callback and its return path agree
// on who touches the stream's deadline last. context.AfterFunc runs the
// callback on its own goroutine, and its stop function only reports that
// the callback has started, not that it has finished: without the guard a
// cancellation landing as the reply is returned could expire the deadline
// after the return path had cleared it — on a connection already back in
// the pool, which then fails its next checkout probe healthy. Under mu,
// finish marks the call over before it clears; expire does nothing once
// the call is over. One guard serves one call, so a callback that starts
// late finds its own call finished, never a successor's in flight.
type callGuard struct {
	mu     sync.Mutex
	stream deadliner
	done   bool
}

// expire is the cancellation callback: it makes the pending read or write
// return at once.
func (g *callGuard) expire() {
	g.mu.Lock()
	if !g.done {
		g.stream.SetDeadline(time.Now())
	}
	g.mu.Unlock()
}

// finish ends the call and leaves the stream with no deadline.
func (g *callGuard) finish() {
	g.mu.Lock()
	g.done = true
	g.stream.SetDeadline(time.Time{})
	g.mu.Unlock()
}

// WriteError replies with a remote error message: err's refusal code,
// when it wraps one, and its text.
func (c *Conn) WriteError(err error) error {
	return c.Write(KindError, Error{Code: ecnp.RefusalOf(err), Text: err.Error()})
}

// IsWriteDeadline reports whether err is a reply-write deadline overrun —
// the failure a server sees when SetWriteTimeout fires because the peer
// stopped reading. Servers use it to count deadline hits separately from
// ordinary disconnects.
func IsWriteDeadline(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}
