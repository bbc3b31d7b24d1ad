package live

import (
	"dfsqos/internal/ids"
	"dfsqos/internal/rm"
	"dfsqos/internal/vdisk"
)

// Test helpers for the external live_test package: a Local whose cleanup
// fails the test on a leaked reservation, the catalog generator and the
// poll helper.
var (
	StartLocal = startLocal
	GenCatalog = testCatalog
	WaitFor    = waitFor
)

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

// ReviveShard restarts member i as a fresh, empty process on its old
// address, so peers reconverge through their pooled stubs. setup, when
// set, configures the new member before its server binds — before any
// peer can beat it or hand it a keyspace.
func (l *Local) ReviveShard(i int, setup func(*MMShard)) error {
	if err := l.bootShard(i, l.mmAddrs[i], setup); err != nil {
		return err
	}
	return l.connectShard(i)
}
