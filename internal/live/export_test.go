package live

import (
	"dfsqos/internal/faults"
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

// setFaults replaces a server's fault injector with a script a test
// builds rule by rule.
func (s *server) setFaults(inj faults.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

// SetFaults replaces a group member's fault injector (see MMShard.inj).
func (s *MMShard) SetFaults(inj faults.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

// Node returns RM id's current rm.RM.
func (l *Local) Node(id ids.RMID) *rm.RM { return l.rms[id-1].Server.Node() }

// Disk returns RM id's virtual disk.
func (l *Local) Disk(id ids.RMID) *vdisk.Disk { return l.rms[id-1].Disk }

// KillRM stops RM id the way its process dies: its loops stop and its
// socket closes. Node(id) still reads the corpse.
func (l *Local) KillRM(id ids.RMID) { l.rms[id-1].Close() }

// Restart re-serves RM id — the same identity and disk, a fresh rm.RM,
// mapper and peer directory — on addr: "" for a new port, the old address
// to rebind it. The old node is stopped first if it still runs.
func (l *Local) Restart(id ids.RMID, addr string) error {
	l.KillRM(id)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return l.startRM(id, addr)
}

// KillShard stops member i the way its process dies: its beats stop, its
// socket closes and its heals drain, so peers see silence and clients
// refused dials.
func (l *Local) KillShard(i int) { l.mms[i].Close() }

// ShardServer returns metadata-plane member i's server, for a test that
// arms a fault script on one member.
func (l *Local) ShardServer(i int) *MMServer { return l.mms[i].Server }

// ReviveShard restarts member i as a fresh, empty process on its old
// address, so peers reconverge through their pooled stubs.
func (l *Local) ReviveShard(i int) error {
	l.KillShard(i)
	return l.startMM(i, l.mmAddrs[i])
}
