package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/faults"
	"dfsqos/internal/mm"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// MMShard is one member of a replicated MM shard group: the mapper an
// mmd process serves when the metadata plane runs as N cooperating
// processes instead of one. The replication protocol is mm.ShardMember's,
// the code the in-process mm.ShardedManager runs too; MMShard adds the
// TCP side. Its peers are pooled transport clients (mirrors go out as
// KindShardMirror, handoffs as KindShardHandoff, each behind a shard fault
// point), and its beat loop sends KindShardBeat, turning a peer's silence
// into a takeover and its return into a heal.
type MMShard struct {
	*mm.ShardMember

	mu      sync.Mutex
	clients []*transport.Client // ring-index aligned; nil at own index / unset
	// inj decides before each mirror send (faults.PointShardMirror) and
	// handoff push (faults.PointShardHandoff): Drop, Kill and Error
	// partition the send, which the member counts as unreachable.
	inj faults.Injector
}

// NewMMShard builds group member index of a shards-wide group with
// replication factor rep (clamped to [1, shards]). beat arms shard
// liveness: a peer silent for MissThreshold × HeartbeatInterval is dead.
// A zero beat config disables expiry (single-process tests drive health
// directly). Peers are attached afterwards with DialPeers.
func NewMMShard(index, shards, rep int, beat mm.LivenessConfig) (*MMShard, error) {
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("live: shard index %d outside [0,%d)", index, shards)
	}
	return &MMShard{
		ShardMember: mm.NewShardMember(index, mm.NewRing(shards), rep, mm.NewShardLiveness(shards, beat)),
		clients:     make([]*transport.Client, shards),
	}, nil
}

// DialPeers attaches client stubs for every non-empty address in addrs
// (ring-index aligned; the member's own slot, and a peer already
// attached, are skipped), so a member started before a peer had bound
// takes its address in a later call. Dialing is lazy at the transport
// layer, so listed-but-down peers do not block startup.
func (s *MMShard) DialPeers(addrs []string, cfg transport.Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, addr := range addrs {
		if i != s.Index() && addr != "" && s.clients[i] == nil {
			s.clients[i] = transport.NewClient(addr, cfg)
			s.SetPeer(i, shardPeerStub{c: s.clients[i], s: s})
		}
	}
}

// ClosePeers releases every peer stub's pooled connections, then waits
// for the heal handoffs beats started (a closed stub fails theirs fast).
// Call it after the member's server and beat loop have stopped, so no
// beat starts another.
func (s *MMShard) ClosePeers() {
	s.mu.Lock()
	for i, c := range s.clients {
		if c != nil {
			c.Close()
			s.clients[i] = nil
			s.SetPeer(i, nil)
		}
	}
	s.mu.Unlock()
	s.WaitHeals()
}

func (s *MMShard) injector() faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inj
}

func (s *MMShard) client(i int) *transport.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clients[i]
}

// shardPeerStub is an mm.ShardPeer over TCP: the peer's client, behind
// the member's shard fault points. A send that never reached the peer —
// partitioned by a fault, or failed in transport — comes back as
// mm.ErrShardUnreachable; a refusal the peer served comes back as is.
type shardPeerStub struct {
	c *transport.Client
	s *MMShard
}

func (p shardPeerStub) ApplyMirror(m wire.ShardMirror) error {
	_, err := p.send(faults.PointShardMirror, m.Op, wire.KindShardMirror, m)
	return err
}

func (p shardPeerStub) ApplyHandoff(h wire.ShardHandoff) (int, error) {
	reply, err := p.send(faults.PointShardHandoff, h.Direction, wire.KindShardHandoff, h)
	n, _ := reply.Payload.(wire.Count)
	return n.N, err
}

func (p shardPeerStub) send(point faults.Point, detail string, kind wire.Kind, payload any) (wire.Msg, error) {
	switch d := faults.Decide(p.s.injector(), point, detail); d.Action {
	case faults.Drop, faults.Kill:
		return wire.Msg{}, fmt.Errorf("%w: injected partition", mm.ErrShardUnreachable)
	case faults.Error:
		return wire.Msg{}, fmt.Errorf("%w: %w", mm.ErrShardUnreachable, d.Err)
	case faults.Delay:
		time.Sleep(d.Delay)
	}
	reply, err := p.c.Call(context.Background(), kind, payload)
	if err != nil && !transport.IsRemote(err) {
		err = fmt.Errorf("%w: %w", mm.ErrShardUnreachable, err)
	}
	return reply, err
}

// beats runs the member's beat loop on l: every interval it beats each
// configured peer (a successful round trip also proves the peer alive,
// through the same HeardFrom a received beat takes, so one working
// direction keeps both tables warm) and sweeps for newly-dead peers,
// running their takeovers, and for silent RMs. Beats are concurrent, one
// goroutine per peer with an in-flight guard: a dead peer's call stalls
// in the transport's redial-backoff gate, and a serial loop let that
// stall push the whole tick past the beat deadline. Stopping l cancels
// the beats in flight.
func (s *MMShard) beats(l *loops, interval time.Duration) {
	inflight := make([]atomic.Bool, len(s.clients))
	beat := wire.ShardBeat{Shard: int32(s.Index())}
	l.every(interval, func() {
		for i := range s.clients {
			p := s.client(i)
			if p == nil || !inflight[i].CompareAndSwap(false, true) {
				continue // unset, or the previous beat is still in flight
			}
			l.spawn(func() {
				defer inflight[i].Store(false)
				if _, err := p.Call(l.ctx, wire.KindShardBeat, beat); err == nil {
					s.HeardFrom(i)
				}
			})
		}
		s.Sweep()
	})
}

var _ shardPeer = (*MMShard)(nil)
var _ beater = (*MMShard)(nil)
