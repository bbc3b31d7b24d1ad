package live_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
)

// tcpGroup is a shard group of live.MMShard members wired over loopback:
// each member serves its own MMServer and reaches the others through
// their addresses. No beat loop runs; the test moves liveness by hand,
// marking a shard down or up in every member's view at once, which is
// what mm.ShardedManager does with its one shared view.
type tcpGroup struct {
	ring    *mm.Ring
	rep     int
	members []*live.MMShard
}

func startTCPGroup(t *testing.T, n, rep int) *tcpGroup {
	t.Helper()
	g := &tcpGroup{ring: mm.NewRing(n), rep: rep}
	addrs := make([]string, n)
	for i := range n {
		s, err := live.NewMMShard(i, n, rep, mm.LivenessConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.ClosePeers) // runs after the server closes
		srv, err := live.NewMMServer(s, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		g.members = append(g.members, s)
		addrs[i] = srv.Addr()
	}
	for _, s := range g.members {
		s.DialPeers(addrs, transport.DefaultConfig())
	}
	return g
}

func (g *tcpGroup) alive(i int) bool { return g.members[0].Health().Alive(i) }

// liveMembers returns the live members in index order.
func (g *tcpGroup) liveMembers() []*live.MMShard {
	var out []*live.MMShard
	for i, s := range g.members {
		if g.alive(i) {
			out = append(out, s)
		}
	}
	return out
}

// serving returns file's first live owner, or nil.
func (g *tcpGroup) serving(f ids.FileID) *live.MMShard {
	for _, o := range g.ring.SuccessorsOfFile(int64(f), g.rep) {
		if g.alive(o) {
			return g.members[o]
		}
	}
	return nil
}

func (g *tcpGroup) registerRM(info ecnp.RMInfo, files []ids.FileID) error {
	for _, s := range g.liveMembers() {
		if err := s.RegisterRM(info, files); err != nil {
			return err
		}
	}
	return nil
}

// write routes a mutation to file's first live owner.
func (g *tcpGroup) write(f ids.FileID, op func(*live.MMShard) error) error {
	if s := g.serving(f); s != nil {
		return op(s)
	}
	return fmt.Errorf("no live owner of %v", f)
}

// kill marks shard i dead everywhere and has the live members run the
// takeover handoff; it returns the entries adopted.
func (g *tcpGroup) kill(i int) int {
	for _, s := range g.members {
		s.Health().SetDown(i, true)
	}
	moved := 0
	for _, s := range g.liveMembers() {
		moved += s.Takeover(i)
	}
	return moved
}

// revive marks shard i live everywhere and has the live members run the
// heal handoff; it returns the entries adopted.
func (g *tcpGroup) revive(i int) int {
	for _, s := range g.members {
		s.Health().SetDown(i, false)
	}
	healed := 0
	for _, s := range g.liveMembers() {
		healed += s.Heal(i)
	}
	return healed
}

func shardRM(id ids.RMID) ecnp.RMInfo {
	return ecnp.RMInfo{ID: id, Capacity: units.Mbps(100), StorageBytes: units.GB, Addr: fmt.Sprintf("rm%d", id)}
}

// sameShard reports how shard i of the in-process group and member i of
// the TCP group differ, or "" when they hold the same mappings and the
// same resource list.
func sameShard(i int, a, b *mm.Manager) string {
	if fa, fb := a.Files(), b.Files(); !slices.Equal(fa, fb) {
		return fmt.Sprintf("shard %d files: in-process %v, tcp %v", i, fa, fb)
	}
	for _, f := range a.Files() {
		if ra, rb := a.Replicas(f), b.Replicas(f); !slices.Equal(ra, rb) {
			return fmt.Sprintf("shard %d holders of %v: in-process %v, tcp %v", i, f, ra, rb)
		}
	}
	if ra, rb := a.AllRMs(), b.AllRMs(); !slices.Equal(ra, rb) {
		return fmt.Sprintf("shard %d resource list: in-process %v, tcp %v", i, ra, rb)
	}
	return ""
}

// TestReplicatedInProcessMatchesTCP runs one seeded schedule of RM
// registrations, replica writes, shard kills and revivals twice: on the
// in-process group (mm.ShardedManager, members calling each other
// directly) and on four live.MMShard members over loopback. Both run the
// same replication core, so after every step each shard must hold the
// same mappings and resource list in both, every call must succeed or
// fail alike and refuse with the same ecnp code, and the group must
// validate. At most R-1 = 1 shard is dead
// at a time: the group's stated fault tolerance.
func TestReplicatedInProcessMatchesTCP(t *testing.T) {
	const n, rep, files, rms, steps = 4, 2, 48, 8, 300
	inproc := mm.NewShardedReplicated(n, rep)
	tcp := startTCPGroup(t, n, rep)
	src := rng.New(5)

	registered := []ids.RMID{}
	register := func() (error, error) {
		id := ids.RMID(len(registered) + 1)
		var fs []ids.FileID
		for f := ids.FileID(0); f < files; f++ {
			if id == 1 || src.Intn(4) == 0 {
				fs = append(fs, f)
			}
		}
		registered = append(registered, id)
		return inproc.RegisterRM(shardRM(id), fs), tcp.registerRM(shardRM(id), fs)
	}
	for range 3 {
		register()
	}
	dead := -1
	type pair struct {
		f  ids.FileID
		rm ids.RMID
	}
	var begun []pair
	for step := range steps {
		f := ids.FileID(src.Intn(files))
		rm := registered[src.Intn(len(registered))]
		var op string
		var errA, errB error
		switch k := src.Intn(20); {
		case k == 0 && len(registered) < rms:
			op = "RegisterRM"
			errA, errB = register()
		case k <= 1:
			if dead >= 0 {
				op = fmt.Sprintf("ReviveShard(%d)", dead)
				if a, b := inproc.ReviveShard(dead), tcp.revive(dead); a != b {
					t.Fatalf("step %d %s: in-process healed %d, tcp %d", step, op, a, b)
				}
				dead = -1
			} else {
				dead = src.Intn(n)
				op = fmt.Sprintf("KillShard(%d)", dead)
				if a, b := inproc.KillShard(dead), tcp.kill(dead); a != b {
					t.Fatalf("step %d %s: in-process moved %d, tcp %d", step, op, a, b)
				}
			}
		case k <= 7:
			op = fmt.Sprintf("AddReplica(%v, %v)", f, rm)
			errA = inproc.AddReplica(f, rm)
			errB = tcp.write(f, func(s *live.MMShard) error { return s.AddReplica(f, rm) })
		case k <= 10:
			op = fmt.Sprintf("RemoveReplica(%v, %v)", f, rm)
			errA = inproc.RemoveReplica(f, rm)
			errB = tcp.write(f, func(s *live.MMShard) error { return s.RemoveReplica(f, rm) })
		case k <= 15:
			capTotal := 3 * src.Intn(2)
			op = fmt.Sprintf("BeginReplication(%v, %v, %d)", f, rm, capTotal)
			errA = inproc.BeginReplication(f, rm, capTotal)
			errB = tcp.write(f, func(s *live.MMShard) error { return s.BeginReplication(f, rm, capTotal) })
			if errA == nil {
				begun = append(begun, pair{f, rm})
			}
		default:
			if len(begun) > 0 {
				i := src.Intn(len(begun))
				f, rm = begun[i].f, begun[i].rm
				begun = slices.Delete(begun, i, i+1)
			}
			commit := src.Intn(2) == 0
			op = fmt.Sprintf("EndReplication(%v, %v, %v)", f, rm, commit)
			errA = inproc.EndReplication(f, rm, commit)
			errB = tcp.write(f, func(s *live.MMShard) error { return s.EndReplication(f, rm, commit) })
		}
		if (errA == nil) != (errB == nil) || ecnp.RefusalOf(errA) != ecnp.RefusalOf(errB) {
			t.Fatalf("step %d %s: in-process err %v, tcp err %v", step, op, errA, errB)
		}
		for i := range n {
			if diff := sameShard(i, inproc.Shard(i), tcp.members[i].Manager); diff != "" {
				t.Fatalf("step %d %s: %s", step, op, diff)
			}
		}
		if err := inproc.Validate(); err != nil {
			t.Fatalf("step %d %s: %v", step, op, err)
		}
	}
}

// shardChaosPair boots a three-member TCP group with R = 2, registers RM
// 1 holding files 0..11 and RM 2 holding nothing, and routes the group's
// telemetry to reg.
func shardChaosPair(t *testing.T, reg *telemetry.Registry) *tcpGroup {
	t.Helper()
	g := startTCPGroup(t, 3, 2)
	met := mm.NewMetrics(reg)
	for _, s := range g.members {
		s.SetMetrics(met)
	}
	var fs []ids.FileID
	for f := ids.FileID(0); f < 12; f++ {
		fs = append(fs, f)
	}
	if err := g.registerRM(shardRM(1), fs); err != nil {
		t.Fatal(err)
	}
	if err := g.registerRM(shardRM(2), nil); err != nil {
		t.Fatal(err)
	}
	return g
}

func expose(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestShardChaosMirrorDropped arms faults.PointShardMirror with a Drop
// on the serving owner: the write commits there, the partitioned mirror
// is counted as failed and not returned, and the co-owner never learns
// the new holder.
func TestShardChaosMirrorDropped(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := shardChaosPair(t, reg)
	owners := g.ring.SuccessorsOfFile(0, g.rep)
	script := faults.NewScript(1)
	script.Add(faults.Rule{Point: faults.PointShardMirror, Match: "AddReplica", Action: faults.Drop})
	g.members[owners[0]].SetFaults(script)

	if err := g.members[owners[0]].AddReplica(0, 2); err != nil {
		t.Fatalf("partitioned mirror surfaced to the writer: %v", err)
	}
	if script.Fired(0) != 1 {
		t.Fatalf("mirror drop fired %d times, want 1", script.Fired(0))
	}
	if hs := g.members[owners[0]].Manager.Replicas(0); !slices.Equal(hs, []ids.RMID{1, 2}) {
		t.Fatalf("serving owner holds %v, want [1 2]", hs)
	}
	if hs := g.members[owners[1]].Manager.Replicas(0); !slices.Equal(hs, []ids.RMID{1}) {
		t.Fatalf("co-owner holds %v behind a dropped mirror, want [1]", hs)
	}
	text := expose(t, reg)
	for _, want := range []string{
		`dfsqos_mm_shard_mirrors_total{outcome="error"} 1`,
		`dfsqos_mm_shard_mirrors_total{outcome="ok"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestShardChaosHandoffDropped arms faults.PointShardHandoff with a Drop
// on every survivor: a shard dies, the takeover pushes never leave, and
// nothing is adopted anywhere.
func TestShardChaosHandoffDropped(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := shardChaosPair(t, reg)
	script := faults.NewScript(1)
	script.Add(faults.Rule{Point: faults.PointShardHandoff, Match: "takeover", Action: faults.Drop})
	for _, s := range g.members {
		s.SetFaults(script)
	}
	before := make([]int, len(g.members))
	for i, s := range g.members {
		before[i] = len(s.Manager.Files())
	}
	const victim = 0
	if moved := g.kill(victim); moved != 0 {
		t.Fatalf("takeover adopted %d entries through a dropped handoff", moved)
	}
	if script.Fired(0) == 0 {
		t.Fatal("handoff drop never fired: the takeover pushed nothing")
	}
	for i, s := range g.members {
		if got := len(s.Manager.Files()); got != before[i] {
			t.Fatalf("shard %d holds %d files after a dropped takeover, had %d", i, got, before[i])
		}
	}
	if text := expose(t, reg); !strings.Contains(text, `dfsqos_mm_shard_handoff_entries_total{direction="takeover"} 0`) {
		t.Fatalf("takeover entries counted through a dropped handoff:\n%s", text)
	}
}

// TestMMShardStatsReportDeadRM: mmd -peers serves a shard-group member,
// and its /metrics must report an RM that stopped heartbeating as dead
// from the member's own liveness table, read at the scrape: no sweep runs
// between the RM's silence and the scrape.
func TestMMShardStatsReportDeadRM(t *testing.T) {
	s, err := live.NewMMShard(0, 2, 2, mm.LivenessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.SetMetrics(mm.NewMetrics(reg))
	now := time.Unix(1000, 0)
	s.Manager.SetClock(func() time.Time { return now })
	s.SetLiveness(mm.LivenessConfig{HeartbeatInterval: time.Second, MissThreshold: 3})
	for _, id := range []ids.RMID{1, 2} {
		if err := s.RegisterRM(shardRM(id), nil); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Second)
	if err := s.Heartbeat(2); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second) // RM 1 silent for 4s > 3 × 1s

	if rms := s.RMs(); len(rms) != 1 || rms[0].ID != 2 {
		t.Fatalf("live resource list %v: want RM 2 alone", rms)
	}
	text := expose(t, reg)
	for _, want := range []string{
		"dfsqos_mm_live_rms 1",
		"dfsqos_mm_registered_rms 2",
		"dfsqos_mm_heartbeats_total 1",
		`dfsqos_mm_rm_transitions_total{direction="dead"} 0`, // no sweep latched it
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
