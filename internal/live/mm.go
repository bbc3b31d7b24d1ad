package live

import (
	"context"
	"fmt"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// MMServer serves a Metadata Manager over TCP. One goroutine per
// connection; the mapper implementations are internally synchronized.
// The single mm.Manager, the in-process mm.ShardedManager and a
// shard-group member (MMShard) all fit.
type MMServer struct {
	server
	mgr ecnp.Mapper
}

// NewMMServer starts listening on addr ("127.0.0.1:0" for an ephemeral
// port) and serves mgr until Close.
func NewMMServer(mgr ecnp.Mapper, addr string) (*MMServer, error) {
	s := &MMServer{mgr: mgr}
	if err := s.listen("mm", addr, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// beater is the optional liveness surface of a mapper. mm.Manager,
// mm.ShardedManager and MMShard implement it; a mapper that does not (or
// a deployment with liveness disabled) simply accepts and ignores
// beacons, keeping ecnp.Mapper untouched.
type beater interface {
	Heartbeat(id ids.RMID) error
}

// shardPeer is the optional shard-group surface of a mapper: the local
// member of a replicated MM shard group (MMShard). The shard-plane
// messages — peer beats, mirrored mutations, keyspace handoffs — are
// refused by mappers that are not group members, so a misconfigured peer
// address fails loudly instead of silently corrupting a single MM.
type shardPeer interface {
	PeerBeat(shard int) error
	mm.ShardPeer
}

func (s *MMServer) handle(wc *wire.Conn, msg wire.Msg) error {
	if handled, err := s.handleFault(wc, faults.PointMMHandle, msg.Kind); handled || err != nil {
		return err
	}
	var sp *trace.Span
	if msg.Trace.Valid() {
		// The guard keeps the name concat off the untraced path.
		sp = s.tr().StartChild(msg.Trace, "mm."+msg.Kind.String())
	}
	err := s.dispatch(wc, msg)
	if sp != nil {
		if err != nil {
			sp.SetOutcome("error")
		} else {
			sp.SetOutcome("ok")
		}
		sp.End()
	}
	return err
}

// dispatch serves one request. The codec decodes each kind into its own
// payload type, so the payload picks the call; the kinds sharing FileRef
// and ReplicaRef are told apart by kind.
func (s *MMServer) dispatch(wc *wire.Conn, msg wire.Msg) error {
	switch req := msg.Payload.(type) {
	case wire.RegisterRM:
		return ack(wc, s.mgr.RegisterRM(req.Info, req.Files))
	case wire.FileRef:
		switch msg.Kind {
		case wire.KindLookup:
			return wc.Write(wire.KindRMList, wire.RMList{RMs: s.mgr.Lookup(req.File)})
		case wire.KindRMsWithout:
			return wc.Write(wire.KindRMList, wire.RMList{RMs: s.mgr.RMsWithout(req.File)})
		case wire.KindReplicaCount:
			return wc.Write(wire.KindCount, wire.Count{N: s.mgr.ReplicaCount(req.File)})
		}
	case wire.ReplicaRef:
		switch msg.Kind {
		case wire.KindAddReplica:
			return ack(wc, s.mgr.AddReplica(req.File, req.RM))
		case wire.KindRemoveReplica:
			return ack(wc, s.mgr.RemoveReplica(req.File, req.RM))
		}
	case wire.BeginReplication:
		if err := s.mgr.BeginReplication(req.File, req.RM, req.MaxTotal); err != nil {
			// The mapper's refusal is a bare reason; the served text names
			// the file, RM and cap it was about.
			return wc.WriteError(fmt.Errorf("%w: %v on %v (cap %d)", err, req.File, req.RM, req.MaxTotal))
		}
		return ack(wc, nil)
	case wire.EndReplication:
		if err := s.mgr.EndReplication(req.File, req.RM, req.Commit); err != nil {
			return wc.WriteError(fmt.Errorf("%w: %v on %v", err, req.File, req.RM))
		}
		return ack(wc, nil)
	case wire.Heartbeat:
		if b, ok := s.mgr.(beater); ok {
			return ack(wc, b.Heartbeat(req.RM))
		}
		return ack(wc, nil)
	case wire.ShardBeat, wire.ShardMirror, wire.ShardHandoff:
		peer, member := s.mgr.(shardPeer)
		if !member {
			return wc.WriteError(fmt.Errorf("mm: not a shard-group member"))
		}
		switch req := req.(type) {
		case wire.ShardBeat:
			return ack(wc, peer.PeerBeat(int(req.Shard)))
		case wire.ShardMirror:
			return ack(wc, peer.ApplyMirror(req))
		case wire.ShardHandoff:
			n, err := peer.ApplyHandoff(req)
			if err != nil {
				return wc.WriteError(err)
			}
			return wc.Write(wire.KindCount, wire.Count{N: n})
		}
	}
	if msg.Kind == wire.KindRMs {
		return wc.Write(wire.KindRMInfoList, wire.RMInfoList{Infos: s.mgr.RMs()})
	}
	return wc.WriteError(fmt.Errorf("mm: unexpected message %v", msg.Kind))
}

// ack answers a request with err, or with an Ack when it is nil.
func ack(wc *wire.Conn, err error) error {
	if err != nil {
		return wc.WriteError(err)
	}
	return wc.Write(wire.KindAck, wire.Ack{})
}

// MMClient is an ecnp.Mapper stub over a pooled transport: concurrent
// calls proceed on independent connections with dial and call deadlines
// instead of serializing behind one mutex-guarded socket.
type MMClient struct {
	t    *transport.Client
	logf func(string, ...any)
}

// DialMM connects to an MM server with the default transport tuning,
// verifying connectivity eagerly.
func DialMM(addr string) (*MMClient, error) {
	return DialMMConfig(addr, transport.DefaultConfig())
}

// DialMMConfig is DialMM with explicit transport tuning.
func DialMMConfig(addr string, cfg transport.Config) (*MMClient, error) {
	t, err := transport.Dial(addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("live: dial mm %s: %w", addr, err)
	}
	return &MMClient{t: t, logf: func(string, ...any) {}}, nil
}

// NewMMClient attaches a client stub without probing connectivity: the
// transport dials lazily on first call. Shard-group members and the
// shard mapper use this so a listed-but-down member never blocks
// startup — the whole point of the group is surviving a dead member.
func NewMMClient(addr string, cfg transport.Config) *MMClient {
	return &MMClient{t: transport.NewClient(addr, cfg), logf: func(string, ...any) {}}
}

// SetLogger routes client-side diagnostics (lookup failures and the like)
// through logf; the default discards them, matching the servers.
func (c *MMClient) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c.logf = logf
}

// Close releases all pooled connections.
func (c *MMClient) Close() error { return c.t.Close() }

func (c *MMClient) call(kind wire.Kind, payload any) (wire.Msg, error) {
	return c.t.Call(context.Background(), kind, payload)
}

// RegisterRM implements ecnp.Mapper.
func (c *MMClient) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	_, err := c.call(wire.KindRegisterRM, wire.RegisterRM{Info: info, Files: files})
	return err
}

// Lookup implements ecnp.Mapper.
func (c *MMClient) Lookup(file ids.FileID) []ids.RMID {
	return c.LookupContext(context.Background(), file)
}

// LookupContext is Lookup carrying ctx to the MM: its deadline bounds the
// round trip and a span context attached via trace.NewContext rides the
// request frame, so the MM's readdir handling appears in the caller's
// trace.
func (c *MMClient) LookupContext(ctx context.Context, file ids.FileID) []ids.RMID {
	holders, err := c.LookupErrContext(ctx, file)
	if err != nil {
		c.logf("live: mm lookup: %v", err)
	}
	return holders
}

// LookupErrContext is LookupContext surfacing the failure with the
// transport taxonomy intact (dfsc's error-reporting mapper interface), so
// the client can tell a dead MM from a file with no replicas.
func (c *MMClient) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	reply, err := c.t.Call(ctx, wire.KindLookup, wire.FileRef{File: file})
	if err != nil {
		return nil, err
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs, nil
	}
	return nil, fmt.Errorf("live: mm lookup: unexpected reply %v", reply.Kind)
}

// RMsWithout implements ecnp.Mapper.
func (c *MMClient) RMsWithout(file ids.FileID) []ids.RMID {
	reply, err := c.call(wire.KindRMsWithout, wire.FileRef{File: file})
	if err != nil {
		c.logf("live: mm rms-without: %v", err)
		return nil
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs
	}
	return nil
}

// AddReplica implements ecnp.Mapper.
func (c *MMClient) AddReplica(file ids.FileID, rm ids.RMID) error {
	_, err := c.call(wire.KindAddReplica, wire.ReplicaRef{File: file, RM: rm})
	return err
}

// RemoveReplica implements ecnp.Mapper.
func (c *MMClient) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	_, err := c.call(wire.KindRemoveReplica, wire.ReplicaRef{File: file, RM: rm})
	return err
}

// BeginReplication implements ecnp.Mapper.
func (c *MMClient) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	_, err := c.call(wire.KindBeginReplication, wire.BeginReplication{File: file, RM: rm, MaxTotal: maxTotal})
	return err
}

// EndReplication implements ecnp.Mapper.
func (c *MMClient) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	_, err := c.call(wire.KindEndReplication, wire.EndReplication{File: file, RM: rm, Commit: commit})
	return err
}

// ReplicaCount implements ecnp.Mapper.
func (c *MMClient) ReplicaCount(file ids.FileID) int {
	reply, err := c.call(wire.KindReplicaCount, wire.FileRef{File: file})
	if err != nil {
		c.logf("live: mm replica-count: %v", err)
		return 0
	}
	if n, ok := reply.Payload.(wire.Count); ok {
		return n.N
	}
	return 0
}

// Heartbeat sends one liveness beacon for id. A remote error means the MM
// does not know the RM (e.g. the MM restarted and lost the resource
// list): the caller must re-register, which also reconciles its file
// list.
func (c *MMClient) Heartbeat(id ids.RMID) error {
	_, err := c.call(wire.KindHeartbeat, wire.Heartbeat{RM: id})
	return err
}

// RMs implements ecnp.Mapper.
func (c *MMClient) RMs() []ecnp.RMInfo {
	reply, err := c.call(wire.KindRMs, nil)
	if err != nil {
		c.logf("live: mm rms: %v", err)
		return nil
	}
	if l, ok := reply.Payload.(wire.RMInfoList); ok {
		return l.Infos
	}
	return nil
}

var _ ecnp.Mapper = (*MMClient)(nil)
