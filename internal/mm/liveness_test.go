package mm

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
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
	m.Sweep()                              // latches the death
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

// TestLivenessSweepCountsSilentRMDeath: an RM that falls silent drops out of every
// answer at once, but reads latch nothing; the first sweep past the
// deadline counts the death once and brings the live gauge down to the
// number of live RMs.
func TestLivenessSweepCountsSilentRMDeath(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	m := New()
	m.SetClock(clk.Now)
	m.SetLiveness(livenessCfg())
	m.SetMetrics(NewMetrics(reg))
	if err := m.RegisterRM(info(1), []ids.FileID{7}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	if len(m.RMs()) != 0 || len(m.Lookup(7)) != 0 || m.Alive(1) || m.LiveCount() != 0 {
		t.Fatal("a silent RM is still answered")
	}
	if text := exposition(t, reg); !strings.Contains(text, `dfsqos_mm_rm_transitions_total{direction="dead"} 0`) {
		t.Fatalf("a read latched the death:\n%s", text)
	}
	m.Sweep()
	m.Sweep()
	text := exposition(t, reg)
	for _, want := range []string{
		`dfsqos_mm_rm_transitions_total{direction="dead"} 1`,
		`dfsqos_mm_live_rms 0`,
		`dfsqos_mm_registered_rms 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q after the sweep:\n%s", want, text)
		}
	}
}

// liveUse is one use of the liveness table: the RM table a Manager keeps,
// or a shard group's. build makes a table over keys on clk with cfg,
// reporting to met's series; unknown are keys the table has no slot for.
type liveUse[K ~int | ~int32] struct {
	keys, unknown []K
	series        func(*Metrics) liveSeries
	build         func(t *testing.T, cfg LivenessConfig, clk *fakeClock, met *Metrics) *Liveness[K]
}

// rmUse builds the table through a Manager's registrations; one RM has the
// largest ID the wire can carry, which no slot allocation may be sized by.
var rmUse = liveUse[ids.RMID]{
	keys:    []ids.RMID{1, 7, math.MaxInt32},
	unknown: []ids.RMID{0, 2, math.MaxInt32 - 1},
	series:  rmSeries,
	build: func(t *testing.T, cfg LivenessConfig, clk *fakeClock, met *Metrics) *Liveness[ids.RMID] {
		m := New()
		m.SetClock(clk.Now)
		m.SetLiveness(cfg)
		m.SetMetrics(met)
		for _, id := range []ids.RMID{math.MaxInt32, 7, 1} {
			if err := m.RegisterRM(info(id), nil); err != nil {
				t.Fatal(err)
			}
		}
		return m.live
	},
}

var shardUse = liveUse[int]{
	keys:    []int{0, 1, 2},
	unknown: []int{-1, 3, 9},
	series:  shardSeries,
	build: func(_ *testing.T, cfg LivenessConfig, clk *fakeClock, met *Metrics) *Liveness[int] {
		h := NewShardLiveness(3, cfg)
		h.SetClock(clk.Now)
		for i := range 3 {
			h.Stamp(i) // on the fake clock
		}
		h.SetMetrics(met)
		return h
	},
}

// TestLivenessTable runs every behaviour of the table over both its uses.
func TestLivenessTable(t *testing.T) {
	t.Run("rm", func(t *testing.T) { livenessCases(t, rmUse) })
	t.Run("shard", func(t *testing.T) { livenessCases(t, shardUse) })
}

func livenessCases[K ~int | ~int32](t *testing.T, u liveUse[K]) {
	cfg := LivenessConfig{HeartbeatInterval: time.Second, MissThreshold: 3}
	k0, k1, k2 := u.keys[0], u.keys[1], u.keys[2]
	setup := func(t *testing.T, cfg LivenessConfig) (*Liveness[K], *fakeClock, liveSeries) {
		clk := newFakeClock()
		met := NewMetrics(nil)
		return u.build(t, cfg, clk, met), clk, u.series(met)
	}

	// With expiry off nothing dies of silence and a sweep finds nothing.
	t.Run("off", func(t *testing.T) {
		h, clk, met := setup(t, LivenessConfig{})
		clk.Advance(time.Hour)
		for _, k := range u.keys {
			if !h.Alive(k) {
				t.Fatalf("%v dead with expiry off", k)
			}
		}
		if newly := h.Sweep(); newly != nil || h.LiveCount() != 3 || met.live.Value() != 3 {
			t.Fatalf("Sweep = %v, live %d, gauge %v: want nil, 3, 3", newly, h.LiveCount(), met.live.Value())
		}
	})

	// A slot that stops beating crosses its deadline, reads see it dead
	// without latching, the sweep latches it once, and the next beat
	// revives it with an epoch bump; in-window beats bump nothing.
	t.Run("expiry", func(t *testing.T) {
		h, clk, met := setup(t, cfg)
		clk.Advance(cfg.Deadline())
		if newly := h.Sweep(); newly != nil {
			t.Fatalf("Sweep at the deadline = %v", newly)
		}
		h.Beat(k1)
		h.Beat(k2)
		if h.Epoch(k1) != 0 {
			t.Fatalf("in-window beat bumped the epoch to %d", h.Epoch(k1))
		}
		clk.Advance(time.Millisecond)
		if h.Alive(k0) || !h.Alive(k1) || h.LiveCount() != 2 || met.deaths.Value() != 0 {
			t.Fatalf("alive %v/%v live %d deaths %d: want false/true, 2, 0 (reads never latch)",
				h.Alive(k0), h.Alive(k1), h.LiveCount(), met.deaths.Value())
		}
		if newly := h.Sweep(); !slices.Equal(newly, []K{k0}) {
			t.Fatalf("Sweep = %v, want [%v]", newly, k0)
		}
		if newly := h.Sweep(); newly != nil {
			t.Fatalf("death re-latched: %v", newly)
		}
		if met.deaths.Value() != 1 || met.live.Value() != 2 {
			t.Fatalf("deaths %d gauge %v after the sweep, want 1 and 2", met.deaths.Value(), met.live.Value())
		}
		if !h.Beat(k0) {
			t.Fatal("beat did not report revival")
		}
		if h.Beat(k0) {
			t.Fatal("second beat reported revival again")
		}
		if h.Epoch(k0) != 1 || h.Epoch(k1) != 0 {
			t.Fatalf("epochs = %d/%d, want 1/0", h.Epoch(k0), h.Epoch(k1))
		}
		if met.deaths.Value() != 1 || met.revivals.Value() != 1 || met.live.Value() != 3 {
			t.Fatalf("deaths %d revivals %d gauge %v, want 1, 1, 3", met.deaths.Value(), met.revivals.Value(), met.live.Value())
		}
	})

	// A death no sweep saw is counted by the beat that revives it.
	t.Run("unswept death", func(t *testing.T) {
		h, clk, met := setup(t, cfg)
		clk.Advance(cfg.Deadline() + time.Millisecond)
		if !h.Beat(k0) || h.Epoch(k0) != 1 {
			t.Fatalf("epoch %d after a reviving beat, want 1", h.Epoch(k0))
		}
		if met.deaths.Value() != 1 || met.revivals.Value() != 1 {
			t.Fatalf("deaths %d revivals %d, want 1 and 1", met.deaths.Value(), met.revivals.Value())
		}
	})

	// SetDown kills and revives, each transition once; beats never
	// override a down mark (a partitioned shard is down even if its
	// process still beacons), and a revival bumps the epoch.
	t.Run("down", func(t *testing.T) {
		h, _, met := setup(t, LivenessConfig{})
		if !h.SetDown(k1, true) {
			t.Fatal("first SetDown(down) did not transition")
		}
		if h.SetDown(k1, true) {
			t.Fatal("repeated SetDown(down) transitioned again")
		}
		if h.Alive(k1) || h.LiveCount() != 2 || met.live.Value() != 2 {
			t.Fatalf("alive %v live %d gauge %v after the kill", h.Alive(k1), h.LiveCount(), met.live.Value())
		}
		if h.Beat(k1) || h.Alive(k1) {
			t.Fatal("a beat revived a slot marked down")
		}
		if met.deaths.Value() != 1 {
			t.Fatalf("deaths = %d, want 1", met.deaths.Value())
		}
		if !h.SetDown(k1, false) || h.SetDown(k1, false) {
			t.Fatal("revive did not transition exactly once")
		}
		if !h.Alive(k1) || h.Epoch(k1) != 1 || met.revivals.Value() != 1 || met.live.Value() != 3 {
			t.Fatalf("alive %v epoch %d revivals %d gauge %v after revival, want true, 1, 1, 3",
				h.Alive(k1), h.Epoch(k1), met.revivals.Value(), met.live.Value())
		}
	})

	// Stamp refreshes with no revival: a lapsed slot is alive again with no
	// epoch bump or transition, a latched one heals silently (so a later
	// death latches again), and a down mark stays.
	t.Run("stamp", func(t *testing.T) {
		h, clk, met := setup(t, cfg)
		clk.Advance(cfg.Deadline() + time.Millisecond)
		h.Stamp(k0)
		if !h.Alive(k0) || h.Epoch(k0) != 0 {
			t.Fatalf("alive %v epoch %d after stamp, want true/0", h.Alive(k0), h.Epoch(k0))
		}
		if newly := h.Sweep(); !slices.Equal(newly, []K{k1, k2}) {
			t.Fatalf("Sweep = %v, want only the unstamped [%v %v]", newly, k1, k2)
		}
		h.Stamp(k1)
		if !h.Alive(k1) || h.Epoch(k1) != 0 || met.revivals.Value() != 0 {
			t.Fatalf("latched slot did not heal silently: alive %v epoch %d revivals %d",
				h.Alive(k1), h.Epoch(k1), met.revivals.Value())
		}
		clk.Advance(cfg.Deadline() + time.Millisecond)
		if newly := h.Sweep(); !slices.Equal(newly, []K{k0, k1}) {
			t.Fatalf("re-lapse after stamp latched %v, want [%v %v]", newly, k0, k1)
		}
		h.SetDown(k0, true)
		h.Stamp(k0)
		if h.Alive(k0) {
			t.Fatal("stamp revived a slot marked down")
		}
	})

	// Keys without a slot are inert.
	t.Run("unknown", func(t *testing.T) {
		h, _, met := setup(t, cfg)
		for _, k := range u.unknown {
			h.Stamp(k)
			if h.Alive(k) || h.Beat(k) || h.SetDown(k, true) || h.Epoch(k) != 0 {
				t.Fatalf("unknown key %v was not inert", k)
			}
		}
		if h.LiveCount() != 3 || met.deaths.Value() != 0 {
			t.Fatalf("live %d deaths %d after unknown keys, want 3 and 0", h.LiveCount(), met.deaths.Value())
		}
	})
}

// TestLivenessMatchesReference runs seeded programs against the table and
// against the reference model of each use (reference_test.go), checking
// Alive, Epoch and the live count after every step and the transition
// counters after every sweep. The references latch by reading — the RM
// table on LiveCount, Alive and every beat, the shard table on Sweep — so
// the reference's latching read stands in for the sweep. One difference
// is by design: a beat that revives a death no latch saw counts it on the
// table and not on the reference, so the check adds one reference death
// for each such revival.
func TestLivenessMatchesReference(t *testing.T) {
	const seeds, steps = 1000, 200
	cfg := livenessCfg()
	advance := func(src *rng.Source, clk *fakeClock) {
		clk.Advance(time.Duration(src.Intn(9)) * cfg.HeartbeatInterval / 2)
	}
	t.Run("rm", func(t *testing.T) {
		pool := []ids.RMID{1, 2, 3, 5, 8, 1 << 20, math.MaxInt32}
		for seed := uint64(0); seed < seeds; seed++ {
			src := rng.New(seed)
			clk := newFakeClock()
			met, refMet := NewMetrics(nil), NewMetrics(nil)
			m := New()
			m.SetClock(clk.Now)
			m.SetLiveness(cfg)
			m.SetMetrics(met)
			ref := newRefRMLiveness(cfg, clk.Now, refMet)
			var unlatched uint64 // reference revivals of deaths it never latched
			revive := func(id ids.RMID) {
				if ref.rms[id] && !ref.aliveLocked(id, clk.Now(), false) && !ref.deadSeen[id] {
					unlatched++
				}
			}
			for step := range steps {
				id := pool[src.Intn(len(pool))]
				op := src.Intn(8)
				switch {
				case op < 1:
					revive(id)
					ref.register(id)
					if err := m.RegisterRM(info(id), nil); err != nil {
						t.Fatal(err)
					}
				case op < 4:
					revive(id)
					if ok := ref.Heartbeat(id); ok != (m.Heartbeat(id) == nil) {
						t.Fatalf("seed %d step %d: heartbeat %v accepted by the reference: %v", seed, step, id, ok)
					}
				case op < 6:
					advance(src, clk)
				default:
					ref.LiveCount()
					m.Sweep()
					if got, want := met.Deaths.Value(), refMet.Deaths.Value()+unlatched; got != want {
						t.Fatalf("seed %d step %d: deaths %d, reference %d", seed, step, got, want)
					}
					if got, want := met.Revivals.Value(), refMet.Revivals.Value(); got != want {
						t.Fatalf("seed %d step %d: revivals %d, reference %d", seed, step, got, want)
					}
					if live := float64(m.LiveCount()); met.LiveRMs.Value() != live || met.RegisteredRMs.Value() != float64(len(ref.rms)) {
						t.Fatalf("seed %d step %d: gauges live %v registered %v, want %v and %d",
							seed, step, met.LiveRMs.Value(), met.RegisteredRMs.Value(), live, len(ref.rms))
					}
				}
				live := 0
				for _, id := range pool {
					alive := ref.rms[id] && ref.aliveLocked(id, clk.Now(), false)
					if alive {
						live++
					}
					if m.Alive(id) != alive || m.Epoch(id) != ref.Epoch(id) {
						t.Fatalf("seed %d step %d: %v alive %v epoch %d, reference %v and %d",
							seed, step, id, m.Alive(id), m.Epoch(id), alive, ref.Epoch(id))
					}
				}
				if m.LiveCount() != live {
					t.Fatalf("seed %d step %d: live count %d, reference %d", seed, step, m.LiveCount(), live)
				}
			}
		}
	})
	t.Run("shard", func(t *testing.T) {
		for seed := uint64(0); seed < seeds; seed++ {
			src := rng.New(seed)
			clk := newFakeClock()
			n := 1 + src.Intn(5)
			cfg := cfg
			if seed%4 == 0 {
				cfg = LivenessConfig{} // explicit marks only
			}
			met, refMet := NewMetrics(nil), NewMetrics(nil)
			h := NewShardLiveness(n, cfg)
			h.SetClock(clk.Now)
			h.SetMetrics(met)
			ref := newRefShardHealth(n, cfg)
			ref.SetClock(clk.Now)
			ref.SetMetrics(refMet)
			for i := range n {
				h.Stamp(i)
				ref.Stamp(i)
			}
			var unlatched uint64
			for step := range steps {
				i := src.Intn(n+2) - 1 // one out of range at each end
				switch op := src.Intn(10); {
				case op < 3:
					if i >= 0 && i < n && ref.deadLocked(i, clk.Now()) && !ref.down[i] && !ref.deadSeen[i] {
						unlatched++
					}
					if got, want := h.Beat(i), ref.Beat(i); got != want {
						t.Fatalf("seed %d step %d: Beat(%d) = %v, reference %v", seed, step, i, got, want)
					}
				case op < 4:
					h.Stamp(i)
					ref.Stamp(i)
				case op < 6:
					down := src.Intn(2) == 0
					if got, want := h.SetDown(i, down), ref.SetDown(i, down); got != want {
						t.Fatalf("seed %d step %d: SetDown(%d, %v) = %v, reference %v", seed, step, i, down, got, want)
					}
				case op < 8:
					advance(src, clk)
				default:
					if got, want := h.Sweep(), ref.Sweep(); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: Sweep = %v, reference %v", seed, step, got, want)
					}
					if got, want := met.ShardDeaths.Value(), refMet.ShardDeaths.Value()+unlatched; got != want {
						t.Fatalf("seed %d step %d: deaths %d, reference %d", seed, step, got, want)
					}
					if got, want := met.ShardRevivals.Value(), refMet.ShardRevivals.Value(); got != want {
						t.Fatalf("seed %d step %d: revivals %d, reference %d", seed, step, got, want)
					}
					if live := float64(h.LiveCount()); met.LiveShards.Value() != live {
						t.Fatalf("seed %d step %d: gauge %v, live count %v", seed, step, met.LiveShards.Value(), live)
					}
				}
				for k := -1; k <= n; k++ {
					if h.Alive(k) != ref.Alive(k) || h.Epoch(k) != ref.Epoch(k) {
						t.Fatalf("seed %d step %d: shard %d alive %v epoch %d, reference %v and %d",
							seed, step, k, h.Alive(k), h.Epoch(k), ref.Alive(k), ref.Epoch(k))
					}
				}
				ref.mu.Lock()
				live := ref.liveCountLocked(clk.Now())
				ref.mu.Unlock()
				if h.LiveCount() != live {
					t.Fatalf("seed %d step %d: live count %d, reference %d", seed, step, h.LiveCount(), live)
				}
			}
		}
	})
}

// With expiry off, registration scans no slot, so the gauges after
// every new slot, and every live count, must still be what a scan of
// every slot reads: stamps going stale, beats, slots marked down and
// revived, with expiry armed and not.
func TestRegistrationGaugesMatchAScan(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		src := rng.New(seed)
		clk := newFakeClock()
		cfg := livenessCfg()
		if seed%3 == 0 {
			cfg = LivenessConfig{}
		}
		met := NewMetrics(nil)
		tbl := newLiveness[ids.RMID](cfg, rmSeries, met)
		tbl.SetClock(clk.Now)
		for step := range 300 {
			id := ids.RMID(src.Intn(100))
			op, slots := src.Intn(7), len(tbl.slots)
			switch {
			case op < 3:
				tbl.add(id)
			case op < 4:
				tbl.Beat(id)
			case op < 5:
				tbl.SetDown(id, src.Intn(2) == 0)
			default:
				clk.Advance(time.Duration(src.Intn(9)) * cfg.HeartbeatInterval / 2)
			}
			live := 0
			for i := range tbl.slots {
				if !tbl.deadLocked(&tbl.slots[i], clk.Now()) {
					live++
				}
			}
			if got := tbl.LiveCount(); got != live {
				t.Fatalf("seed %d step %d: live count %d, a scan reads %d", seed, step, got, live)
			}
			if len(tbl.slots) > slots && (met.LiveRMs.Value() != float64(live) || met.RegisteredRMs.Value() != float64(len(tbl.slots))) {
				t.Fatalf("seed %d step %d: registering %v left gauges live %v registered %v, a scan reads %d and %d",
					seed, step, id, met.LiveRMs.Value(), met.RegisteredRMs.Value(), live, len(tbl.slots))
			}
		}
	}
}
