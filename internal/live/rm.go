package live

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"dfsqos/internal/blkio"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/rm"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// FileName maps a catalog file ID to its name on an RM's virtual disk.
func FileName(f ids.FileID) string { return fmt.Sprintf("%d.video", int32(f)) }

// RMServer fronts one Resource Manager over TCP: the control plane
// delegates to the embedded rm.RM (the same actor the simulation runs) and
// the data plane streams file contents from a blkio-throttled virtual disk.
type RMServer struct {
	server
	node *rm.RM
	disk *vdisk.Disk

	// Stream QoS state (EnableStreamQoS): one blkio group per admitted
	// untenanted reservation (keyed by request ID) or one shared group per
	// tenant (all of a tenant's streams contend inside it). Guarded by
	// qosMu, not mu — group lookups sit on the per-chunk data path.
	qosMu      sync.Mutex
	qosGroups  map[ids.RequestID]*blkio.Group
	qosTenants map[ids.TenantID]*tenantQoS

	// names remembers FileName for files the disk has served, so a range
	// request does not format (and allocate) the name again for every MiB.
	// Only names the disk knows are kept: what a client asks for cannot
	// grow it past what the disk holds.
	nameMu sync.RWMutex
	names  map[ids.FileID]string
}

// tenantQoS aggregates one tenant's live reservations into a single
// throttle group: rate is the Σ of member reservation bitrates (the
// group's assured floor), streams the member count.
type tenantQoS struct {
	rate    units.BytesPerSec
	streams int
}

// NewRMServer starts serving node and disk on addr. With a disk, it
// installs the disk as node's disk step (rm.RM.SetDiskHooks), where
// written files and accepted offers are provisioned.
func NewRMServer(node *rm.RM, disk *vdisk.Disk, addr string) (*RMServer, error) {
	s := &RMServer{node: node, disk: disk}
	if disk != nil {
		node.SetDiskHooks(
			func(f ids.FileID, size units.Size) error { return disk.Provision(FileName(f), size) },
			func(f ids.FileID) { disk.Remove(FileName(f)) })
	}
	if err := s.listen(fmt.Sprintf("rm%d", node.Info().ID), addr, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// rmSpanName maps a wire kind to its RM-side span name. The hot and
// QoS-relevant kinds get interned ECNP-flavored names; the long tail
// falls back to a (rare, traced-only) concat.
func rmSpanName(k wire.Kind) string {
	switch k {
	case wire.KindCFP:
		return "rm.bid"
	case wire.KindOpen:
		return "rm.open"
	case wire.KindClose:
		return "rm.close"
	case wire.KindReadFile:
		return "rm.stream"
	case wire.KindWriteFile:
		return "rm.ingest"
	case wire.KindKeepalive:
		return "rm.keepalive"
	case wire.KindOfferReplica:
		return "rm.offer"
	}
	return "rm." + k.String()
}

// EnableStreamQoS routes each admitted reservation's data stream through
// a blkio group instead of the disk's shared default group — the paper's
// per-VM blkio.throttle binding, upgraded to the work-conserving tree.
// The disk controller's root pool is set to the RM's nominal capacity,
// and every admission installs a group whose assured rate is the
// reservation's bitrate and whose ceiling is max(bitrate, ceilFrac ×
// capacity): with ceilFrac 0 the ceiling equals the floor (flat,
// non-work-conserving pacing); with ceilFrac 1 an idle-neighbor stream may
// borrow the whole disk. Groups are torn down on Close and on lease
// expiry (the sweeper fires the release hook), so a client that dies
// mid-stream returns its floor to the pool after one lease TTL.
//
// Tenanted reservations share one group per tenant ("tenant<N>") whose
// assured floor is the Σ of the tenant's admitted bitrates: the tenant's
// streams contend with each other inside that bucket, so a tenant
// fanning out a storm of streams throttles itself — not its neighbours —
// once the shared ceiling is hit. Untenanted reservations keep their
// per-request groups ("req<N>"), the pre-tenancy behaviour.
//
// Call before traffic starts; it replaces any previously installed
// admission hooks.
func (s *RMServer) EnableStreamQoS(ceilFrac float64) error {
	if s.disk == nil {
		return fmt.Errorf("live: stream QoS needs a data plane")
	}
	ctrl := s.disk.Controller()
	capacity := s.node.Info().Capacity
	if err := ctrl.SetRoot(capacity, capacity); err != nil {
		return err
	}
	s.qosMu.Lock()
	s.qosGroups = make(map[ids.RequestID]*blkio.Group)
	s.qosTenants = make(map[ids.TenantID]*tenantQoS)
	s.qosMu.Unlock()
	ceilFor := func(assured units.BytesPerSec) units.BytesPerSec {
		if c := units.BytesPerSec(ceilFrac * float64(capacity)); c > assured {
			return c
		}
		return assured
	}
	s.node.SetAdmissionHooks(
		func(req ids.RequestID, tn ids.TenantID, rate units.BytesPerSec) {
			if rate <= 0 {
				return // unlimited reservations keep the default group
			}
			name := fmt.Sprintf("req%d", req)
			assured := rate
			if tn.Valid() {
				name = tn.String()
				s.qosMu.Lock()
				tq := s.qosTenants[tn]
				if tq == nil {
					tq = &tenantQoS{}
					s.qosTenants[tn] = tq
				}
				tq.rate += rate
				tq.streams++
				assured = tq.rate
				s.qosMu.Unlock()
			}
			g, err := ctrl.SetGroupQoS(name, blkio.GroupConfig{
				ReadAssured: assured, ReadCeil: ceilFor(assured),
				WriteAssured: assured, WriteCeil: ceilFor(assured),
			})
			if err != nil {
				s.logf("%s: stream qos group for %v: %v", s.name, req, err)
				return
			}
			s.qosMu.Lock()
			s.qosGroups[req] = g
			s.qosMu.Unlock()
		},
		func(req ids.RequestID, tn ids.TenantID, rate units.BytesPerSec) {
			s.qosMu.Lock()
			_, ok := s.qosGroups[req]
			delete(s.qosGroups, req)
			if !ok {
				s.qosMu.Unlock()
				return
			}
			if !tn.Valid() {
				s.qosMu.Unlock()
				ctrl.RemoveGroup(fmt.Sprintf("req%d", req))
				return
			}
			tq := s.qosTenants[tn]
			var remaining units.BytesPerSec
			last := true
			if tq != nil {
				tq.rate -= rate
				if tq.rate < 0 {
					tq.rate = 0
				}
				tq.streams--
				last = tq.streams <= 0
				remaining = tq.rate
				if last {
					delete(s.qosTenants, tn)
				}
			}
			s.qosMu.Unlock()
			if last {
				ctrl.RemoveGroup(tn.String())
				return
			}
			// Shrink the shared floor to the surviving members' Σ rate.
			if _, err := ctrl.SetGroupQoS(tn.String(), blkio.GroupConfig{
				ReadAssured: remaining, ReadCeil: ceilFor(remaining),
				WriteAssured: remaining, WriteCeil: ceilFor(remaining),
			}); err != nil {
				s.logf("%s: shrink tenant qos group %v: %v", s.name, tn, err)
			}
		},
	)
	return nil
}

// diskName is FileName(f) with its size on the disk, the name taken from
// s.names when the file has been served before.
func (s *RMServer) diskName(f ids.FileID) (string, units.Size, error) {
	s.nameMu.RLock()
	name, known := s.names[f]
	s.nameMu.RUnlock()
	if !known {
		name = FileName(f)
	}
	size, err := s.disk.Stat(name)
	if err == nil && !known {
		s.nameMu.Lock()
		if s.names == nil {
			s.names = make(map[ids.FileID]string)
		}
		s.names[f] = name
		s.nameMu.Unlock()
	}
	return name, size, err
}

// qosGroup resolves the reservation's stream group; nil means the default
// group paces the stream (QoS disabled, zero request, or an unthrottled
// reservation).
func (s *RMServer) qosGroup(req ids.RequestID) *blkio.Group {
	if req == 0 {
		return nil
	}
	s.qosMu.Lock()
	defer s.qosMu.Unlock()
	return s.qosGroups[req]
}

// Node exposes the embedded RM actor (stats, snapshots).
func (s *RMServer) Node() *rm.RM { return s.node }

func (s *RMServer) handle(wc *wire.Conn, msg wire.Msg) error {
	if handled, err := s.handleFault(wc, faults.PointRMHandle, msg.Kind); handled || err != nil {
		return err
	}
	var sp *trace.Span
	if msg.Trace.Valid() {
		sp = s.tr().StartChild(msg.Trace, rmSpanName(msg.Kind))
		sp.SetRM(s.node.Info().ID)
	}
	err := s.dispatch(wc, msg, sp)
	if sp != nil {
		if err != nil {
			sp.SetOutcome("error")
		} else if sp.Outcome() == "" {
			sp.SetOutcome("ok")
		}
		sp.End()
	}
	return err
}

// dispatch serves one request. The codec decodes each kind into its own
// payload type, so the payload picks the call, as in MMServer.dispatch.
func (s *RMServer) dispatch(wc *wire.Conn, msg wire.Msg, sp *trace.Span) error {
	switch req := msg.Payload.(type) {
	case ecnp.CFP:
		sp.SetFile(req.File).SetRequest(req.Request)
		return wc.Write(wire.KindBid, s.node.HandleCFP(req))
	case ecnp.OpenRequest:
		res := s.node.Open(req)
		sp.SetFile(req.File).SetRequest(req.Request)
		if res.OK {
			sp.SetOutcome("admitted")
		} else {
			sp.SetOutcome(res.Code.Label())
		}
		return wc.Write(wire.KindOpenResult, res)
	case wire.CloseReq:
		s.node.Close(req.Request)
		return wc.Write(wire.KindAck, wire.Ack{})
	case ecnp.ReplicaOffer:
		return wc.Write(wire.KindOfferReply, wire.OfferReply{Accepted: s.node.OfferReplica(req)})
	case wire.FinishReplica:
		s.node.FinishReplica(req.Replication, req.Committed)
		return wc.Write(wire.KindAck, wire.Ack{})
	case *wire.ReadFile:
		// Copied out of the pooled payload, so the frame resources go
		// back before the stream starts.
		rf := *req
		msg.Release()
		return s.streamFile(wc, rf, sp)
	case wire.WriteFile:
		return s.ingestFile(wc, req, sp)
	case wire.Keepalive:
		// Renew (not Touch): a client whose lease already expired must
		// learn that and re-negotiate rather than stream into a closed
		// reservation.
		if err := s.node.Renew(req.Request); err != nil {
			return wc.WriteError(err)
		}
		return wc.Write(wire.KindAck, wire.Ack{})
	}
	return wc.WriteError(fmt.Errorf("rm: unexpected message %v", msg.Kind))
}

// streamBufs recycles streamFile's chunk buffers: a stripe lane asks for
// one 1 MiB range per request, so a fresh 128 KiB buffer for each would be
// an eighth of every byte served in zeroed garbage.
var streamBufs = sync.Pool{New: func() any { return new([]byte) }}

// getStreamBuf borrows a buffer of length n; hand it back with
// streamBufs.Put once the last chunk read into it has been written.
func getStreamBuf(n int) *[]byte {
	bp := streamBufs.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// streamFile sends the file from req.Offset as FileChunk frames followed
// by FileEnd. A positive req.Length bounds the stream to the byte range
// [Offset, Offset+Length) clamped at EOF; the FileEnd then reports the
// absolute end position of the range and a checksum over only the range
// bytes — wire.ChecksumUpdate's CRC-32C, folded per chunk as they leave
// at hardware speed, so summing every range served costs the server a few
// percent of moving it. The whole-file path keeps using the disk's
// memoized checksum and folds nothing per chunk.
// A non-zero req.Request names the QoS reservation the stream serves:
// every chunk write touches its lease, so an active stream never expires
// under the sweeper. Each chunk also passes the rm.stream.chunk fault
// point (detail: decimal absolute offset), which is where chaos tests
// tear connections mid-read. When the request arrived traced, sp is the
// server's "rm.stream" span: chunks and the FileEnd go back out carrying
// its context (still zero allocations per chunk — the trace slot rides
// the pooled frame prefix), and the span records the segment's offset
// and byte count.
func (s *RMServer) streamFile(wc *wire.Conn, req wire.ReadFile, sp *trace.Span) error {
	if s.disk == nil {
		return wc.WriteError(fmt.Errorf("rm: no data plane configured"))
	}
	sp.SetFile(req.File).SetRequest(req.Request).SetOffset(req.Offset)
	chunk := req.ChunkSize
	if chunk <= 0 || chunk > 256*1024 {
		chunk = 64 * 1024
	}
	name, size, err := s.diskName(req.File)
	if err != nil {
		return wc.WriteError(err)
	}
	if req.Offset < 0 || req.Offset > int64(size) {
		return wc.WriteError(fmt.Errorf("rm: offset %d outside %q (%d bytes)", req.Offset, name, int64(size)))
	}
	end := int64(size)
	ranged := req.Length > 0
	// Both numbers come straight off the frame: compared this way round
	// nothing overflows (the offset is already inside [0, size]).
	if ranged && req.Length < end-req.Offset {
		end = req.Offset + req.Length
	}
	rangeSum := wire.ChecksumBasis
	inj := s.injector()
	tc := sp.Context() // zero when untraced: chunks carry no trace slot
	ctx := context.Background()
	// Stream QoS: a reservation with its own blkio group is paced by its
	// assured/ceil pair instead of the disk's shared default group.
	group := s.qosGroup(req.Request)
	if group == nil {
		group = s.disk.DefaultGroup()
	}
	bp := getStreamBuf(chunk)
	defer streamBufs.Put(bp)
	buf := *bp
	off := req.Offset
	for off < end {
		want := buf
		if remain := end - off; remain < int64(len(want)) {
			want = want[:remain]
		}
		n, rerr := s.disk.ReadAtGroup(ctx, group, name, want, off)
		if n > 0 {
			// The fault decision (and its detail string) is only built when
			// an injector is armed: the production hot loop stays
			// allocation-free per chunk.
			if inj != nil {
				fc := wire.FileChunk{Offset: off, Data: buf[:n]}
				d := faults.Decide(inj, faults.PointRMChunk, strconv.FormatInt(off, 10))
				if handled, ferr := applyFault(wc, d, wire.KindFileChunk, fc, s.kill); handled || ferr != nil {
					sp.SetBytes(off - req.Offset)
					return ferr
				}
			}
			// WriteChunkTraced is the zero-copy fast path: one writev per
			// chunk, and buf is reusable as soon as it returns.
			if werr := wc.WriteChunkTraced(tc, off, buf[:n]); werr != nil {
				sp.SetBytes(off - req.Offset)
				return werr
			}
			if ranged {
				rangeSum = wire.ChecksumUpdate(rangeSum, buf[:n])
			}
			off += int64(n)
			if req.Request != 0 {
				s.node.Touch(req.Request)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return wc.WriteError(rerr)
		}
	}
	sp.SetBytes(off - req.Offset)
	if ranged {
		// Ranged FileEnd: Size is the absolute end position of the range
		// and Checksum covers exactly the range bytes, so each stripe
		// segment verifies independently of its siblings.
		return wc.WriteFileEnd(tc, end, rangeSum)
	}
	sum, err := s.disk.Checksum(name)
	if err != nil {
		return wc.WriteError(err)
	}
	return wc.WriteFileEnd(tc, int64(size), sum)
}

// ingestFile receives an inbound data stream (replica copy or upload) and
// stores it on the virtual disk, refusing it when the bytes received do
// not fold to the checksum the sender's FileEnd declares. Replica
// ingestion writes through the raw path: it rides the B_REV reserve, not
// the VM's QoS throttle. A chunk that fits the current block's spare
// capacity is received straight into it (vdisk.Content, read into through
// Conn.ReadInto, as RMClient.ReadRange does for a segment) and the disk
// adopts the blocks (vdisk.WriteRaw), so its bytes are not copied after
// the socket read. sp, when the WriteFile arrived traced, is the server's
// "rm.ingest" span and records the byte count stored.
func (s *RMServer) ingestFile(wc *wire.Conn, req wire.WriteFile, sp *trace.Span) error {
	if s.disk == nil {
		return wc.WriteError(fmt.Errorf("rm: no data plane configured"))
	}
	// The declared size comes off an untrusted 20-byte frame. It caps what
	// the content below will hold, but allocates nothing: blocks follow the
	// bytes received. A size the disk could never hold is refused before
	// any of the stream is read (WriteRaw would refuse it at the end).
	if req.SizeBytes < 0 || req.SizeBytes > int64(s.disk.Capacity()) {
		return wc.WriteError(fmt.Errorf("rm: inbound size %d outside disk capacity %v", req.SizeBytes, s.disk.Capacity()))
	}
	sp.SetFile(req.File).SetBytes(req.SizeBytes)
	data := vdisk.NewContent(req.SizeBytes)
	sum := wire.ChecksumBasis
	for {
		dst := data.AvailableBuffer()
		msg, err := wc.ReadInto(dst[:cap(dst)])
		if err != nil {
			return err
		}
		switch msg.Kind {
		case wire.KindFileChunk:
			chunk, ok := msg.Chunk()
			if !ok {
				return wc.WriteError(fmt.Errorf("rm: malformed FileChunk"))
			}
			if chunk.Offset != data.Len() {
				off := chunk.Offset
				msg.Release()
				return wc.WriteError(fmt.Errorf("rm: out-of-order chunk at %d, want %d", off, data.Len()))
			}
			// The chunk lies in the block's spare capacity, where Write
			// takes it in place, or — when it did not fit there — in the
			// borrowed frame buffer, which Write copies out of before
			// Release hands it back. Write refuses bytes past the declared
			// size.
			sum = wire.ChecksumUpdate(sum, chunk.Data)
			_, werr := data.Write(chunk.Data)
			msg.Release()
			if werr != nil {
				return wc.WriteError(fmt.Errorf("rm: stream exceeds declared size %d", req.SizeBytes))
			}
		case wire.KindFileEnd:
			end, ok := msg.FileEnd()
			msg.Release()
			if !ok {
				return wc.WriteError(fmt.Errorf("rm: malformed FileEnd"))
			}
			if end.Size != data.Len() || end.Size != req.SizeBytes {
				return wc.WriteError(fmt.Errorf("rm: stream ended at %d bytes, declared %d", data.Len(), req.SizeBytes))
			}
			if end.Checksum != sum {
				return wc.WriteError(fmt.Errorf("rm: inbound checksum mismatch"))
			}
			if err := s.disk.WriteRaw(FileName(req.File), data); err != nil {
				return wc.WriteError(err)
			}
			return wc.Write(wire.KindAck, wire.Ack{})
		default:
			return wc.WriteError(fmt.Errorf("rm: unexpected %v during inbound stream", msg.Kind))
		}
	}
}

// RMClient is an ecnp.Provider stub over a pooled transport. Control-plane
// calls are deadline-bounded and run concurrently on independent pooled
// connections; data-plane streams check a dedicated connection out for
// their full duration.
type RMClient struct {
	info   ecnp.RMInfo
	t      *transport.Client
	logf   func(string, ...any)
	broken atomic.Bool
}

// DialRMConfig connects to an RM server whose registration record is
// info, with the given transport tuning. Connectivity is verified eagerly
// so an unreachable RM fails at construction.
func DialRMConfig(info ecnp.RMInfo, cfg transport.Config) (*RMClient, error) {
	if info.Addr == "" {
		return nil, fmt.Errorf("live: %v has no address", info.ID)
	}
	t, err := transport.Dial(info.Addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("live: dial %v at %s: %w", info.ID, info.Addr, err)
	}
	return &RMClient{info: info, t: t, logf: func(string, ...any) {}}, nil
}

// SetLogger routes client-side diagnostics (default: discard).
func (c *RMClient) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c.logf = logf
}

// Disconnect releases all pooled connections. (Close is taken by the
// ecnp.Provider method that releases a bandwidth reservation.)
func (c *RMClient) Disconnect() error { return c.t.Close() }

// call performs one deadline-bounded RPC, recording transport failures —
// but not errors the peer served — in the broken flag so the directory
// re-resolves the RM's address: the RM may have restarted on a new port
// and re-registered with the MM.
func (c *RMClient) call(ctx context.Context, kind wire.Kind, payload any) (wire.Msg, error) {
	msg, err := c.t.Call(ctx, kind, payload)
	if err != nil && !transport.IsRemote(err) {
		c.broken.Store(true)
	}
	return msg, err
}

// Broken reports whether the client has seen a transport failure since
// the last ClearBroken.
func (c *RMClient) Broken() bool { return c.broken.Load() }

// ClearBroken re-arms the client after the directory confirms the MM
// still advertises this address: the pool redials lazily under its
// exponential backoff, which survives across clears.
func (c *RMClient) ClearBroken() { c.broken.Store(false) }

// Info implements ecnp.Provider.
func (c *RMClient) Info() ecnp.RMInfo { return c.info }

// HandleCFPContext implements ecnp.CtxBidder: the CFP round trip is
// bounded by ctx (and the transport's call deadline). Any failure —
// transport, timeout, or served error — degrades to the zero bid, which
// ranks this RM last without aborting the negotiation.
func (c *RMClient) HandleCFPContext(ctx context.Context, cfp ecnp.CFP) selection.Bid {
	reply, err := c.call(ctx, wire.KindCFP, cfp)
	if err != nil {
		c.logf("live: cfp to %v: %v", c.info.ID, err)
		return ecnp.ZeroBid(c.info.ID, cfp)
	}
	if bid, ok := reply.Payload.(selection.Bid); ok {
		return bid
	}
	return ecnp.ZeroBid(c.info.ID, cfp)
}

// HandleCFP implements ecnp.Provider.
func (c *RMClient) HandleCFP(cfp ecnp.CFP) selection.Bid {
	return c.HandleCFPContext(context.Background(), cfp)
}

// Open implements ecnp.Provider.
func (c *RMClient) Open(req ecnp.OpenRequest) ecnp.OpenResult {
	return c.OpenContext(context.Background(), req)
}

// OpenContext is Open bounded by ctx; a span context attached via
// trace.NewContext rides the request frame so the RM's admission decision
// appears in the caller's trace.
func (c *RMClient) OpenContext(ctx context.Context, req ecnp.OpenRequest) ecnp.OpenResult {
	reply, err := c.call(ctx, wire.KindOpen, req)
	if err != nil {
		return ecnp.OpenResult{OK: false, Code: ecnp.RefusalOf(err), Reason: err.Error()}
	}
	if res, ok := reply.Payload.(ecnp.OpenResult); ok {
		return res
	}
	return ecnp.OpenResult{OK: false, Reason: "malformed OpenResult"}
}

// Close implements ecnp.Provider.
func (c *RMClient) Close(request ids.RequestID) {
	if _, err := c.call(context.Background(), wire.KindClose, wire.CloseReq{Request: request}); err != nil {
		c.logf("live: close on %v: %v", c.info.ID, err)
	}
}

// OfferReplica implements ecnp.Provider.
func (c *RMClient) OfferReplica(offer ecnp.ReplicaOffer) bool {
	reply, err := c.call(context.Background(), wire.KindOfferReplica, offer)
	if err != nil {
		c.logf("live: offer to %v: %v", c.info.ID, err)
		return false
	}
	if r, ok := reply.Payload.(wire.OfferReply); ok {
		return r.Accepted
	}
	return false
}

// FinishReplica implements ecnp.Provider.
func (c *RMClient) FinishReplica(rep ids.ReplicationID, committed bool) {
	if _, err := c.call(context.Background(), wire.KindFinishReplica, wire.FinishReplica{Replication: rep, Committed: committed}); err != nil {
		c.logf("live: finish on %v: %v", c.info.ID, err)
	}
}

// stream checks a dedicated connection out of the pool for a data-plane
// exchange, runs fn on it, and returns it (discarding on transport
// failure). Streams are exempt from the call deadline — the disk throttle
// paces them — but still inherit the dial deadline and backoff gate. A
// stream that ends because ctx did is the caller giving up, not the RM
// failing: the connection (mid-exchange) is discarded like any other, but
// the broken flag is left alone.
func (c *RMClient) stream(ctx context.Context, fn func(wc *wire.Conn) error) error {
	conn, err := c.t.Get(ctx)
	if err == nil {
		err = transport.Classify("stream", c.t.Addr(), fn(conn.W))
		c.t.Put(conn, err)
	}
	if err != nil && !transport.IsRemote(err) && ctx.Err() == nil {
		c.broken.Store(true)
	}
	return err
}

// ReadRange is the one file-stream call: it streams the byte range
// [offset, offset+length) of the file into w — to EOF when length is 0 —
// and returns the bytes delivered (on error, the resume point). A span
// context on ctx (trace.NewContext) rides the opening ReadFile frame, so
// the serving RM's "rm.stream" span becomes a child of the caller's
// segment span; a non-zero req names the QoS reservation the stream rides
// (the server renews its lease per chunk). It holds a dedicated pooled
// connection for the duration of the stream, and gives both up between
// chunks once ctx is done.
//
// sum, when non-nil, is the running checksum state (CRC-32C, see
// wire.ChecksumUpdate) the received bytes are folded into and the FileEnd
// checksum is verified against (nil skips verification). What that
// checksum covers follows the request:
//
//   - length > 0: FileEnd.Size is the absolute end of the range (clamped
//     at EOF) and Checksum covers the range bytes only; seed sum with
//     wire.ChecksumBasis per range. dfsc.ReadStriped reads this way.
//   - length 0: FileEnd carries the file's size and whole-file checksum,
//     so sum must hold the state of bytes [0, offset) — wire.ChecksumBasis
//     for a read from 0. (An offset read with no prior state cannot
//     verify: pass nil.)
func (c *RMClient) ReadRange(ctx context.Context, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	if length < 0 {
		return 0, fmt.Errorf("live: ReadRange length %d is negative", length)
	}
	pos := offset
	// A writer that offers its spare capacity (bufio.Writer, bytes.Buffer,
	// dfsc's segment writer) has each chunk that fits received straight
	// into it, so the Write below hands it the bytes already in place.
	avail, _ := w.(interface{ AvailableBuffer() []byte })
	err := c.stream(ctx, func(wc *wire.Conn) error {
		if err := wc.WriteReadReq(trace.FromContext(ctx), wire.ReadFile{
			File: file, ChunkSize: 128 * 1024, Offset: offset, Request: req, Length: length,
		}); err != nil {
			return err
		}
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			var dst []byte
			if avail != nil {
				dst = avail.AvailableBuffer()
				dst = dst[:cap(dst)]
			}
			msg, err := wc.ReadInto(dst)
			if err != nil {
				return err
			}
			switch msg.Kind {
			case wire.KindFileChunk:
				chunk, ok := msg.Chunk()
				if !ok {
					return fmt.Errorf("live: malformed FileChunk")
				}
				if chunk.Offset != pos {
					off := chunk.Offset
					msg.Release()
					return fmt.Errorf("live: out-of-order chunk at %d, want %d", off, pos)
				}
				n := len(chunk.Data)
				// Measured from offset: offset+length overflows for a
				// legal over-long range (the server clamps it at EOF).
				if length > 0 && pos-offset+int64(n) > length {
					msg.Release()
					return fmt.Errorf("live: range overrun: chunk ends %d bytes into a %d-byte range", pos-offset+int64(n), length)
				}
				// chunk.Data borrows the pooled frame buffer or lies in
				// w's spare capacity: consume it (sink write + running
				// checksum), then Release so the stream loop recycles
				// instead of allocating per chunk.
				if _, err := w.Write(chunk.Data); err != nil {
					msg.Release()
					return err
				}
				if sum != nil {
					*sum = wire.ChecksumUpdate(*sum, chunk.Data)
				}
				msg.Release()
				pos += int64(n)
			case wire.KindFileEnd:
				end, ok := msg.FileEnd()
				msg.Release()
				if !ok {
					return fmt.Errorf("live: malformed FileEnd")
				}
				if end.Size != pos {
					return fmt.Errorf("live: stream ended at %d bytes, server reports %d", pos, end.Size)
				}
				if sum != nil && end.Checksum != *sum {
					return fmt.Errorf("live: checksum mismatch")
				}
				return nil
			case wire.KindError:
				return wire.ServedError(msg)
			default:
				return fmt.Errorf("live: unexpected %v during stream", msg.Kind)
			}
		}
	})
	return pos - offset, err
}

// Keepalive explicitly renews a reservation lease at the RM. It fails
// with a remote error when the lease already expired, telling the caller
// to re-negotiate.
func (c *RMClient) Keepalive(req ids.RequestID) error {
	_, err := c.call(context.Background(), wire.KindKeepalive, wire.Keepalive{Request: req})
	return err
}

// WriteFile streams size bytes from r to the remote RM's disk under the
// given file id (rep identifies the replication transfer, 0 for uploads).
// A span context attached to ctx rides the WriteFile header and every
// chunk, so the destination's "rm.ingest" span joins the copier's trace.
// It holds a dedicated pooled connection for the duration of the stream
// and fails unless the server acknowledges a checksum-verified store.
func (c *RMClient) WriteFile(ctx context.Context, file ids.FileID, rep ids.ReplicationID, size int64, r io.Reader) error {
	tc := trace.FromContext(ctx)
	return c.stream(ctx, func(wc *wire.Conn) error {
		if err := wc.WriteTraced(tc, wire.KindWriteFile, wire.WriteFile{File: file, SizeBytes: size, Replication: rep}); err != nil {
			return err
		}
		buf := make([]byte, 64*1024)
		var off int64
		sum := wire.ChecksumBasis
		for off < size {
			n, err := r.Read(buf)
			if n > 0 {
				if werr := wc.WriteChunkTraced(tc, off, buf[:n]); werr != nil {
					return werr
				}
				sum = wire.ChecksumUpdate(sum, buf[:n])
				off += int64(n)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		if off != size {
			return fmt.Errorf("live: source delivered %d of %d bytes", off, size)
		}
		if err := wc.WriteFileEnd(tc, size, sum); err != nil {
			return err
		}
		reply, err := wc.Read()
		if err != nil {
			return err
		}
		if reply.Kind == wire.KindError {
			return wire.ServedError(reply)
		}
		if reply.Kind != wire.KindAck {
			return fmt.Errorf("live: unexpected %v after upload", reply.Kind)
		}
		return nil
	})
}

var _ ecnp.Provider = (*RMClient)(nil)
var _ ecnp.CtxBidder = (*RMClient)(nil)

// Directory resolves providers by dialing the addresses the MM's resource
// list advertises, caching one pooled client per RM.
type Directory struct {
	mapper ecnp.Mapper
	cfg    transport.Config
	mu     sync.Mutex
	cache  map[ids.RMID]*RMClient
	logf   func(string, ...any)
}

// NewDirectory builds a directory backed by the given mapper with default
// transport tuning.
func NewDirectory(mapper ecnp.Mapper) *Directory {
	return NewDirectoryConfig(mapper, transport.DefaultConfig())
}

// NewDirectoryConfig is NewDirectory with explicit transport tuning,
// applied to every RM client it dials.
func NewDirectoryConfig(mapper ecnp.Mapper, cfg transport.Config) *Directory {
	return &Directory{
		mapper: mapper,
		cfg:    cfg,
		cache:  make(map[ids.RMID]*RMClient),
		logf:   func(string, ...any) {},
	}
}

// SetLogger routes directory and client diagnostics (default: discard).
// It applies to clients dialed after the call.
func (d *Directory) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d.mu.Lock()
	d.logf = logf
	d.mu.Unlock()
}

// Provider implements ecnp.Directory. A cached client that has suffered a
// transport failure is re-resolved against the address the MM currently
// advertises: if the address is unchanged the same client (and its pool,
// with its backoff state) is re-armed and redials lazily; if the RM
// re-registered on a new address the old client is discarded and the new
// address dialed — so an RM that crashed and came back (possibly on a new
// port) becomes reachable again without manual intervention.
func (d *Directory) Provider(id ids.RMID) (ecnp.Provider, bool) {
	d.mu.Lock()
	cached, ok := d.cache[id]
	logf := d.logf
	d.mu.Unlock()
	if ok && !cached.Broken() {
		return cached, true
	}

	var info ecnp.RMInfo
	found := false
	for _, i := range d.mapper.RMs() {
		if i.ID == id {
			info, found = i, true
			break
		}
	}
	if !found {
		return nil, false
	}
	if ok && cached.Info().Addr == info.Addr {
		// Same advertised address: keep the client, let its pool redial
		// under backoff.
		cached.ClearBroken()
		return cached, true
	}
	if ok {
		d.mu.Lock()
		delete(d.cache, id)
		d.mu.Unlock()
		cached.Disconnect()
	}

	c, err := DialRMConfig(info, d.cfg)
	if err != nil {
		logf("live: directory: %v", err)
		return nil, false
	}
	c.SetLogger(logf)
	d.mu.Lock()
	defer d.mu.Unlock()
	if existing, ok := d.cache[id]; ok {
		c.Disconnect()
		return existing, true
	}
	d.cache[id] = c
	return c, true
}

// RMClient returns the cached typed client (for the data plane), dialing
// if needed.
func (d *Directory) RMClient(id ids.RMID) (*RMClient, bool) {
	p, ok := d.Provider(id)
	if !ok {
		return nil, false
	}
	c, ok := p.(*RMClient)
	return c, ok
}

// StreamAt implements dfsc.Streamer, the to-EOF data plane: it resolves
// rmID and streams file from offset into w under reservation req,
// threading the caller's running checksum state across segments (see
// RMClient.ReadRange, to-EOF form) and any span context carried by ctx
// onto the stream's opening frame. It reports the bytes this segment
// delivered even on error — that is the resume point.
func (d *Directory) StreamAt(ctx context.Context, rmID ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	c, ok := d.RMClient(rmID)
	if !ok {
		return 0, fmt.Errorf("live: directory cannot resolve %v", rmID)
	}
	return c.ReadRange(ctx, file, req, offset, 0, w, sum)
}

// StreamRange implements the dfsc stripe scheduler's data plane
// (dfsc.RangeStreamer): it resolves rmID and streams exactly the byte
// range [offset, offset+length) of file into w under reservation req,
// verifying the per-range checksum when sum is seeded with
// wire.ChecksumBasis (see RMClient.ReadRange). length must be positive: a
// scheduler's empty segment must not turn into a read to EOF.
func (d *Directory) StreamRange(ctx context.Context, rmID ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("live: StreamRange length %d must be positive", length)
	}
	c, ok := d.RMClient(rmID)
	if !ok {
		return 0, fmt.Errorf("live: directory cannot resolve %v", rmID)
	}
	return c.ReadRange(ctx, file, req, offset, length, w, sum)
}

// Close releases all cached connections.
func (d *Directory) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.cache {
		c.Disconnect()
	}
	d.cache = make(map[ids.RMID]*RMClient)
}

var _ ecnp.Directory = (*Directory)(nil)
