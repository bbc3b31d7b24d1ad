package live

import (
	"fmt"
	"io"
	"slices"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
)

// LocalSpec describes one in-process cluster: a metadata plane and one RM
// per entry of Caps, every role on its own loopback TCP socket.
type LocalSpec struct {
	// Catalog is the corpus; every RM provisions the files it holds from it.
	Catalog *catalog.Catalog
	// Caps is each RM's disk rate: RM i+1 serves a 1 GB vdisk at Caps[i].
	Caps []units.BytesPerSec
	// Holders names the RMs that hold each file at start-up.
	Holders map[ids.FileID][]ids.RMID
	// TimeScale is virtual seconds per wall second (zero: 100).
	TimeScale float64
	// Replication configures every RM's replication agent (zero: static
	// placement).
	Replication replication.Config
	// Rand is the master stream; RM id draws Rand.Split(id.String()) (nil:
	// a fixed seed).
	Rand *rng.Source
	// ShardGroup replaces the single mm.Manager with a localShards-member
	// MMShard group.
	ShardGroup bool
	// RM, when set, edits each RM's options before rm.New — the fields
	// only some clusters use (Tenants, LeaseTTLSec, Metrics, Copier). disk
	// and peers are the RM's own, for a Copier. Restart runs it again.
	RM func(opt *rm.Options, disk *vdisk.Disk, peers *Directory)
}

// Local is an in-process cluster in the order the paper starts it (Fig.
// 2): the metadata plane, then the RMs, each registered at the address it
// serves, then a client's mapper and directory. Settings of one server
// (SetTracer, SetFaults, SetMetrics, EnableStreamQoS, the Manager's
// SetLiveness) are the caller's, on the servers Local exposes.
type Local struct {
	Catalog *catalog.Catalog
	Sched   *WallScheduler

	// Manager and MM are the single metadata manager and its server; nil
	// when the spec asks for a shard group.
	Manager *mm.Manager
	MM      *MMServer
	// Shards and ShardServers are the shard-group members and their
	// servers, ring-index aligned.
	Shards       []*MMShard
	ShardServers []*MMServer

	// Mapper (an *MMClient, or a *ShardMapper over a shard group) and Dir
	// are a client's view of the cluster.
	Mapper ecnp.Mapper
	Dir    *Directory

	spec       LocalSpec
	rms        []*localRM // index id-1
	shardAddrs []string
	shardBeats []func()
}

// localRM is one RM's handles: its disk outlives a Restart, the rest is
// replaced by it.
type localRM struct {
	disk   *vdisk.Disk
	srv    *RMServer
	mapper ecnp.Mapper
	peers  *Directory
}

// The shard group's shape: three members, every file on two of them.
const localShards, localShardRep = 3, 2

// localShardBeat is the shard group's liveness: a member silent for 60 ms
// of wall time is dead, so a drill converges in tens of milliseconds.
var localShardBeat = mm.LivenessConfig{HeartbeatInterval: 20 * time.Millisecond, MissThreshold: 3}

// NewLocal starts the cluster spec describes. On error everything already
// started is torn down.
func NewLocal(spec LocalSpec) (*Local, error) {
	if spec.TimeScale == 0 {
		spec.TimeScale = 100
	}
	if spec.Replication == (replication.Config{}) {
		spec.Replication = replication.DefaultConfig(replication.Static())
	}
	if spec.Rand == nil {
		spec.Rand = rng.New(31)
	}
	l := &Local{Catalog: spec.Catalog, Sched: NewWallScheduler(spec.TimeScale), spec: spec}
	if err := l.start(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func (l *Local) start() error {
	if l.spec.ShardGroup {
		l.Shards = make([]*MMShard, localShards)
		l.ShardServers = make([]*MMServer, localShards)
		l.shardAddrs = make([]string, localShards)
		l.shardBeats = make([]func(), localShards)
		for i := range localShards {
			if err := l.bootShard(i, "127.0.0.1:0"); err != nil {
				return err
			}
		}
		for i := range localShards {
			if err := l.connectShard(i); err != nil {
				return err
			}
		}
	} else {
		l.Manager = mm.New()
		srv, err := NewMMServer(l.Manager, "127.0.0.1:0")
		if err != nil {
			return err
		}
		l.MM = srv
	}
	for i := range l.spec.Caps {
		if err := l.addRM(ids.RMID(i + 1)); err != nil {
			return fmt.Errorf("live: local RM%d: %w", i+1, err)
		}
	}
	mapper, err := l.dialMapper()
	if err != nil {
		return err
	}
	l.Mapper, l.Dir = mapper, NewDirectory(mapper)
	return nil
}

// addRM provisions RM id's disk with the files it holds and serves it.
func (l *Local) addRM(id ids.RMID) error {
	capBW := l.spec.Caps[id-1]
	disk, err := vdisk.New(units.GB, blkio.NewController(), fmt.Sprintf("vm%d", id), capBW, capBW)
	if err != nil {
		return err
	}
	for f := range l.files(id) {
		if err := disk.Provision(FileName(f), l.Catalog.File(f).Size); err != nil {
			return err
		}
	}
	l.rms = append(l.rms, &localRM{disk: disk})
	return l.serveRM(id, "127.0.0.1:0")
}

// files is the static replica table of RM id.
func (l *Local) files(id ids.RMID) map[ids.FileID]rm.FileMeta {
	files := make(map[ids.FileID]rm.FileMeta)
	for f, hs := range l.spec.Holders {
		if slices.Contains(hs, id) {
			meta := l.Catalog.File(f)
			files[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
		}
	}
	return files
}

// dialMapper opens a mapper onto the metadata plane.
func (l *Local) dialMapper() (ecnp.Mapper, error) {
	if l.MM != nil {
		return DialMM(l.MM.Addr())
	}
	m, err := DialShardMapper(l.shardAddrs, localShardRep, transport.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// A loopback member answers in microseconds: a short retry base keeps
	// a successor failover inside a drill's deadlines.
	m.SetRetryPolicy(2*time.Millisecond, 1)
	return m, nil
}

// serveRM builds RM id on its disk — its own mapper and peer directory, a
// fresh rm.RM and a server on addr — and registers it at the address it
// serves, as rmd does.
func (l *Local) serveRM(id ids.RMID, addr string) error {
	n := l.rms[id-1]
	mapper, err := l.dialMapper()
	if err != nil {
		return err
	}
	n.mapper, n.peers = mapper, NewDirectory(mapper)
	opt := rm.Options{
		Info:        ecnp.RMInfo{ID: id, Capacity: l.spec.Caps[id-1], StorageBytes: units.GB},
		Scheduler:   l.Sched,
		Mapper:      mapper,
		History:     history.DefaultConfig(),
		Replication: l.spec.Replication,
		Rand:        l.spec.Rand.Split(id.String()),
		Files:       l.files(id),
	}
	if l.spec.RM != nil {
		l.spec.RM(&opt, n.disk, n.peers)
	}
	node, err := rm.New(opt)
	if err != nil {
		return err
	}
	if n.srv, err = NewRMServer(node, n.disk, addr); err != nil {
		return err
	}
	node.SetAddr(n.srv.Addr())
	if err := node.Register(); err != nil {
		return err
	}
	node.SetDirectory(n.peers)
	return nil
}

// Server returns RM id's current server.
func (l *Local) Server(id ids.RMID) *RMServer { return l.rms[id-1].srv }

// Node returns RM id's current rm.RM.
func (l *Local) Node(id ids.RMID) *rm.RM { return l.rms[id-1].srv.Node() }

// Disk returns RM id's virtual disk.
func (l *Local) Disk(id ids.RMID) *vdisk.Disk { return l.rms[id-1].disk }

// Restart re-serves RM id — the same identity and disk, a fresh rm.RM,
// mapper and peer directory — on addr: "" for a new port, the old address
// to rebind it. The old server is closed first if it still runs.
func (l *Local) Restart(id ids.RMID, addr string) (*RMServer, error) {
	n := l.rms[id-1]
	n.close()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if err := l.serveRM(id, addr); err != nil {
		return nil, err
	}
	return n.srv, nil
}

func (n *localRM) close() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.peers != nil {
		n.peers.Close()
	}
	if n.mapper != nil {
		n.mapper.(io.Closer).Close()
	}
}

// bootShard builds member i and binds its server on addr.
func (l *Local) bootShard(i int, addr string) error {
	shard, err := NewMMShard(i, localShards, localShardRep, localShardBeat)
	if err != nil {
		return err
	}
	srv, err := NewMMServer(shard, addr)
	if err != nil {
		return err
	}
	l.Shards[i], l.ShardServers[i], l.shardAddrs[i] = shard, srv, srv.Addr()
	return nil
}

// connectShard dials member i's peers and starts its beat loop.
func (l *Local) connectShard(i int) error {
	if err := l.Shards[i].DialPeers(l.shardAddrs, transport.DefaultConfig()); err != nil {
		return err
	}
	l.shardBeats[i] = l.Shards[i].StartShardBeats(localShardBeat.HeartbeatInterval)
	return nil
}

// KillShard stops member i the way its process would die: its beats stop
// and its socket closes, so peers see silence and clients refused dials.
func (l *Local) KillShard(i int) {
	if stop := l.shardBeats[i]; stop != nil {
		stop()
		l.shardBeats[i] = nil
	}
	l.Shards[i].ClosePeers()
	l.ShardServers[i].Close()
}

// ReviveShard restarts member i as a fresh, empty process on its old
// address, so peers reconverge through their pooled stubs. setup, when
// set, configures the new member and its server before it beats — before
// any peer can hand it a keyspace.
func (l *Local) ReviveShard(i int, setup func(*MMShard, *MMServer)) error {
	if err := l.bootShard(i, l.shardAddrs[i]); err != nil {
		return err
	}
	if setup != nil {
		setup(l.Shards[i], l.ShardServers[i])
	}
	return l.connectShard(i)
}

// Leaks names every RM still serving that holds a reservation or
// bandwidth: once a workload is over, all of it must have been returned.
// An RM whose server was closed — a crash drill's corpse — is skipped.
func (l *Local) Leaks() []string {
	var out []string
	for _, n := range l.rms {
		if n.srv == nil || n.srv.isClosed() {
			continue
		}
		node := n.srv.Node()
		if c, bw := node.ActiveReservations(), node.Allocated(); c != 0 || bw != 0 {
			out = append(out, fmt.Sprintf("%v still holds %d reservation(s), %v allocated", node.Info().ID, c, bw))
		}
	}
	return out
}

// Close tears the cluster down in one order: the client's directory and
// mapper, then each RM with its own directory and mapper, then the
// metadata plane, then the scheduler.
func (l *Local) Close() {
	if l.Dir != nil {
		l.Dir.Close()
	}
	if l.Mapper != nil {
		l.Mapper.(io.Closer).Close()
	}
	for _, n := range l.rms {
		n.close()
	}
	for i, shard := range l.Shards {
		if shard != nil {
			l.KillShard(i)
		}
	}
	if l.MM != nil {
		l.MM.Close()
	}
	l.Sched.Stop()
}

// isClosed reports whether the server has been closed (or killed by a
// fault).
func (s *server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
