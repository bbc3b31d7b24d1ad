package live

import (
	"cmp"
	"slices"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
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
	// Rand is the master stream; RM id draws Rand.Split(id.String()) (nil:
	// a fixed seed).
	Rand *rng.Source
	// ShardGroup replaces the single mm.Manager with a localShards-member
	// MMShard group, beating every 20 ms unless MM says otherwise.
	ShardGroup bool
	// MM and RM are every node's spec; Local fills in each node's place in
	// the cluster (address, peers, identity, disk, files, clock, stream).
	// Zero misses mean 3, zero replication static placement.
	MM MMSpec
	RM RMSpec
	// Faults is a fault script per RM, in place of RM.Faults.
	Faults map[ids.RMID]string
}

// Local is an in-process cluster in the order the paper starts it (Fig.
// 2): the metadata plane, then the RMs, each registered at the address it
// serves, then a client's mapper and directory. Every process is a node,
// started and stopped as mmd and rmd start and stop theirs.
type Local struct {
	Catalog *catalog.Catalog
	Sched   *WallScheduler

	// Manager and MM are the single metadata manager and its server; nil
	// when the spec asks for a shard group.
	Manager *mm.Manager
	MM      *MMServer
	// Shards are the shard-group members, ring-index aligned.
	Shards []*MMShard

	// Mapper and Dir are a client's view of the cluster.
	Mapper *MMClient
	Dir    *Directory

	spec    LocalSpec
	mms     []*MMNode // ring-index aligned
	mmAddrs []string
	rms     []*RMNode // index id-1
}

// The shard group's shape: three members, every file on two of them.
const localShards, localShardRep = 3, 2

// NewLocal starts the cluster spec describes. On error everything already
// started is torn down.
func NewLocal(spec LocalSpec) (*Local, error) {
	spec.TimeScale = cmp.Or(spec.TimeScale, 100)
	if spec.Rand == nil {
		spec.Rand = rng.New(31)
	}
	if spec.RM.Replication == (replication.Config{}) {
		spec.RM.Replication = replication.DefaultConfig(replication.Static())
	}
	spec.MM.LivenessMisses = cmp.Or(spec.MM.LivenessMisses, 3)
	n := 1
	if spec.ShardGroup {
		n = localShards
		// A member silent for 60 ms of wall time is dead, so a drill
		// converges in tens of milliseconds.
		spec.MM.ShardBeatInterval = cmp.Or(spec.MM.ShardBeatInterval, 20*time.Millisecond)
	}
	l := &Local{Catalog: spec.Catalog, Sched: NewWallScheduler(spec.TimeScale), spec: spec,
		mms: make([]*MMNode, n), mmAddrs: make([]string, n), rms: make([]*RMNode, len(spec.Caps))}
	if err := l.start(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func (l *Local) start() error {
	for i := range l.mms {
		if err := l.startMM(i, "127.0.0.1:0"); err != nil {
			return err
		}
	}
	if l.spec.ShardGroup {
		// A member started before its successors had bound takes their
		// addresses now.
		cfg := nodeTransport(l.spec.MM.Transport, l.spec.MM.Registry)
		for _, n := range l.mms {
			l.Shards = append(l.Shards, n.Shard)
			n.Shard.DialPeers(l.mmAddrs, cfg)
		}
	} else {
		l.Manager, l.MM = l.mms[0].Manager, l.mms[0].Server
	}
	for i := range l.rms {
		if err := l.startRM(ids.RMID(i+1), "127.0.0.1:0"); err != nil {
			return err
		}
	}
	mapper, err := DialMMConfig(l.mmAddrs, localShardRep, transport.DefaultConfig())
	if err != nil {
		return err
	}
	// A loopback member answers in microseconds: a short retry base keeps
	// a successor failover inside a drill's deadlines.
	mapper.SetRetryPolicy(2*time.Millisecond, 1)
	l.Mapper, l.Dir = mapper, NewDirectory(mapper)
	return nil
}

// startMM starts metadata-plane node i on addr.
func (l *Local) startMM(i int, addr string) error {
	spec := l.spec.MM
	spec.Addr = addr
	if l.spec.ShardGroup {
		spec.Peers, spec.Index, spec.Replication = slices.Clone(l.mmAddrs), i, localShardRep
	}
	n, err := StartMM(spec)
	if err != nil {
		return err
	}
	l.mms[i], l.mmAddrs[i] = n, n.Server.Addr()
	if l.Shards != nil {
		l.Shards[i] = n.Shard
	}
	return nil
}

// startRM starts RM id on addr, on the disk its last start left if it had
// one.
func (l *Local) startRM(id ids.RMID, addr string) error {
	spec := l.spec.RM
	spec.ID, spec.Addr, spec.MM, spec.MMRep = id, addr, l.mmAddrs, localShardRep
	spec.Capacity, spec.Storage, spec.Catalog = l.spec.Caps[id-1], units.GB, l.Catalog
	spec.Sched, spec.Rand = l.Sched, l.spec.Rand.Split(id.String())
	for f, hs := range l.spec.Holders {
		if slices.Contains(hs, id) {
			spec.Files = append(spec.Files, f)
		}
	}
	if f, ok := l.spec.Faults[id]; ok {
		spec.Faults = f
	}
	if old := l.rms[id-1]; old != nil {
		spec.Disk = old.Disk
	}
	n, err := StartRM(spec)
	if err != nil {
		return err
	}
	l.rms[id-1] = n
	return nil
}

// Server returns RM id's current server.
func (l *Local) Server(id ids.RMID) *RMServer { return l.rms[id-1].Server }

// Serving returns the RM of every server still serving: a crash drill's
// corpse is left out.
func (l *Local) Serving() []*rm.RM {
	var out []*rm.RM
	for _, n := range l.rms {
		if n != nil && !n.Server.isClosed() {
			out = append(out, n.Server.Node())
		}
	}
	return out
}

// Close tears the cluster down in one order: the client's directory and
// mapper, then each RM, then the metadata plane, then the scheduler.
func (l *Local) Close() {
	if l.Dir != nil {
		l.Dir.Close()
	}
	if l.Mapper != nil {
		l.Mapper.Close()
	}
	for _, n := range l.rms {
		if n != nil {
			n.Close()
		}
	}
	for _, n := range l.mms {
		if n != nil {
			n.Close()
		}
	}
	l.Sched.Stop()
}
