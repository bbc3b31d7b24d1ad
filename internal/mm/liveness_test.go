package mm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
)

// fakeClock is a hand-advanced wall clock for deterministic liveness tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// livenessCfg arms a 100ms beat with 3 allowed misses: dead after 300ms.
func livenessCfg() LivenessConfig {
	return LivenessConfig{HeartbeatInterval: 100 * time.Millisecond, MissThreshold: 3}
}

func TestLivenessDisabledEverythingAlive(t *testing.T) {
	m := New()
	if err := m.RegisterRM(info(1), nil); err != nil {
		t.Fatal(err)
	}
	// No SetLiveness: no beats ever, still alive forever.
	if !m.Alive(1) {
		t.Fatal("RM dead with liveness disabled")
	}
	if got := m.LiveCount(); got != 1 {
		t.Fatalf("LiveCount = %d, want 1", got)
	}
}

func TestHeartbeatKeepsAliveMissedBeatsKill(t *testing.T) {
	clk := newFakeClock()
	m := New()
	m.SetClock(clk.Now)
	m.SetLiveness(livenessCfg())
	for _, id := range []ids.RMID{1, 2} {
		if err := m.RegisterRM(info(id), []ids.FileID{7}); err != nil {
			t.Fatal(err)
		}
	}
	// Both beat once inside the window; then only RM 1 keeps beating.
	for i := 0; i < 5; i++ {
		clk.Advance(100 * time.Millisecond)
		if err := m.Heartbeat(1); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := m.Heartbeat(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 400ms since RM 2's last beat > 300ms deadline: dead.
	if !m.Alive(1) || m.Alive(2) {
		t.Fatalf("alive = (%v, %v), want (true, false)", m.Alive(1), m.Alive(2))
	}
	if got := m.LiveCount(); got != 1 {
		t.Fatalf("LiveCount = %d, want 1", got)
	}
	// The routing surfaces exclude the corpse: RMs() and Lookup answer
	// with the live holder only, so negotiations never target RM 2.
	rms := m.RMs()
	if len(rms) != 1 || rms[0].ID != 1 {
		t.Fatalf("RMs() = %v, want [1]", rms)
	}
	if hs := m.Lookup(7); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("Lookup(7) = %v, want [1]", hs)
	}
	// AllRMs keeps the full registry (monitoring needs to show corpses).
	if all := m.AllRMs(); len(all) != 2 {
		t.Fatalf("AllRMs() = %v, want both", all)
	}
}

func TestEpochBumpsOnlyOnRevival(t *testing.T) {
	clk := newFakeClock()
	m := New()
	m.SetClock(clk.Now)
	m.SetLiveness(livenessCfg())
	if err := m.RegisterRM(info(1), nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(1); got != 0 {
		t.Fatalf("first registration epoch = %d, want 0", got)
	}
	// In-window beats leave the epoch alone.
	clk.Advance(100 * time.Millisecond)
	if err := m.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(1); got != 0 {
		t.Fatalf("in-window beat bumped epoch to %d", got)
	}
	// Silence past the deadline, then a beat: one revival.
	clk.Advance(time.Second)
	if m.Alive(1) {
		t.Fatal("RM alive 1s after last beat")
	}
	if err := m.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(1); got != 1 {
		t.Fatalf("epoch after revival = %d, want 1", got)
	}
	if !m.Alive(1) {
		t.Fatal("RM still dead after reviving beat")
	}
	// A second incident healed by re-registration (the crash-restart
	// path) bumps again.
	clk.Advance(time.Second)
	if err := m.RegisterRM(info(1), nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(1); got != 2 {
		t.Fatalf("epoch after re-registration revival = %d, want 2", got)
	}
}

func TestHeartbeatFromUnregisteredRefused(t *testing.T) {
	m := New()
	m.SetLiveness(livenessCfg())
	if err := m.Heartbeat(9); err == nil {
		t.Fatal("heartbeat from unregistered RM accepted")
	}
}

func TestReRegistrationReconcilesFileList(t *testing.T) {
	m := New()
	// RM 1 holds files 1 and 2; RM 2 also holds file 2.
	if err := m.RegisterRM(info(1), []ids.FileID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterRM(info(2), []ids.FileID{2}); err != nil {
		t.Fatal(err)
	}
	// RM 1 restarts with a wiped disk holding only file 1: its stale
	// claim on file 2 must be pruned so requests stop routing there.
	if err := m.RegisterRM(info(1), []ids.FileID{1}); err != nil {
		t.Fatal(err)
	}
	if hs := m.Lookup(2); len(hs) != 1 || hs[0] != 2 {
		t.Fatalf("Lookup(2) = %v, want [2]", hs)
	}
	if fs := m.FilesOn(1); len(fs) != 1 || fs[0] != 1 {
		t.Fatalf("FilesOn(1) = %v, want [1]", fs)
	}
	// But the last replica of a file is never pruned: RM 1 re-registering
	// empty keeps file 1 attributed (reachable for repair) rather than
	// orphaning it from the namespace.
	if err := m.RegisterRM(info(1), nil); err != nil {
		t.Fatal(err)
	}
	if hs := m.Lookup(1); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("last replica pruned: Lookup(1) = %v", hs)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLivenessMetrics(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	m := New()
	m.SetClock(clk.Now)
	m.SetLiveness(livenessCfg())
	m.SetMetrics(NewMetrics(reg))
	if err := m.RegisterRM(info(1), nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if m.Alive(1) { // latches the death
		t.Fatal("RM alive after 1s of silence")
	}
	if err := m.Heartbeat(1); err != nil { // revival
		t.Fatal(err)
	}
	text := exposition(t, reg)
	for _, want := range []string{
		`dfsqos_mm_rm_transitions_total{direction="dead"} 1`,
		`dfsqos_mm_rm_transitions_total{direction="live"} 1`,
		`dfsqos_mm_live_rms 1`,
		`dfsqos_mm_registered_rms 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestShardedLivenessFansOut(t *testing.T) {
	clk := newFakeClock()
	m := NewSharded(4)
	m.SetClock(clk.Now)
	m.SetLiveness(livenessCfg())
	if err := m.RegisterRM(info(1), []ids.FileID{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if m.Alive(1) {
		t.Fatal("sharded RM alive after 1s of silence")
	}
	// Every shard must agree the RM is dead (each shard filters its own
	// lookups), and one fanned-out heartbeat must heal them all in step.
	for _, f := range []ids.FileID{1, 2, 3, 4, 5, 6, 7, 8} {
		if hs := m.Lookup(f); len(hs) != 0 {
			t.Fatalf("dead RM still holds file %v on its shard: %v", f, hs)
		}
	}
	if err := m.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	for _, f := range []ids.FileID{1, 2, 3, 4, 5, 6, 7, 8} {
		if hs := m.Lookup(f); len(hs) != 1 || hs[0] != 1 {
			t.Fatalf("heartbeat did not heal file %v's shard: %v", f, hs)
		}
	}
	if got := m.Epoch(1); got != 1 {
		t.Fatalf("sharded epoch = %d, want 1", got)
	}
	if got := m.LiveCount(); got != 1 {
		t.Fatalf("sharded LiveCount = %d, want 1", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
