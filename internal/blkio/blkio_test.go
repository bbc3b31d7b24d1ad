package blkio

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
)

// fakeClock gives tests full control over time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func fakeController() (*Controller, *fakeClock) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	return NewController(WithClock(fc.Now), WithSleep(func(time.Duration) {})), fc
}

func TestSetGroupValidation(t *testing.T) {
	c, _ := fakeController()
	if _, err := c.SetGroup("", units.Mbps(1), 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.SetGroup("vm1", -1, 0); err == nil {
		t.Fatal("negative limit accepted")
	}
	if _, err := c.SetGroup("vm1", units.Mbps(18), units.Mbps(18)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Group("vm1"); !ok {
		t.Fatal("group not registered")
	}
	if _, ok := c.Group("vm2"); ok {
		t.Fatal("phantom group")
	}
	if len(c.Groups()) != 1 {
		t.Fatalf("Groups() = %v", c.Groups())
	}
}

func TestBurstThenThrottle(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", 1000, 0) // 1000 B/s read
	// The initial burst (one second of tokens) passes instantly.
	if d := c.Reserve(g, Read, 1000); d != 0 {
		t.Fatalf("burst reserve delayed %v", d)
	}
	// The next kilobyte must wait a full second.
	if d := c.Reserve(g, Read, 1000); d != time.Second {
		t.Fatalf("post-burst reserve delayed %v, want 1s", d)
	}
}

func TestRefillOverTime(t *testing.T) {
	c, fc := fakeController()
	g, _ := c.SetGroup("vm1", 1000, 0)
	c.Reserve(g, Read, 1000) // drain the burst
	fc.Advance(500 * time.Millisecond)
	// 500 tokens refilled: 500 bytes pass, the rest waits.
	if d := c.Reserve(g, Read, 500); d != 0 {
		t.Fatalf("refilled reserve delayed %v", d)
	}
	if d := c.Reserve(g, Read, 500); d != 500*time.Millisecond {
		t.Fatalf("reserve delayed %v, want 500ms", d)
	}
}

func TestSustainedRateConvergesToLimit(t *testing.T) {
	c, fc := fakeController()
	g, _ := c.SetGroup("vm1", units.MBps(2), 0) // 2 MB/s
	const chunk = 64 * 1024
	var total int
	var elapsed time.Duration
	for total < 100*1024*1024 {
		d := c.Reserve(g, Read, chunk)
		elapsed += d
		fc.Advance(d)
		total += chunk
	}
	rate := float64(total) / elapsed.Seconds()
	// Long-run rate within 5% of the limit (the 1-second burst amortizes
	// away over a 100 MB transfer).
	if rate < 1.9e6 || rate > 2.1e6 {
		t.Fatalf("sustained rate %.0f B/s, want ~2e6", rate)
	}
}

func TestReadWriteIndependent(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", 1000, 500)
	c.Reserve(g, Read, 1000) // drain read burst
	// Write bucket is untouched.
	if d := c.Reserve(g, Write, 500); d != 0 {
		t.Fatalf("write reserve delayed %v after read drain", d)
	}
	if d := c.Reserve(g, Write, 500); d != time.Second {
		t.Fatalf("write reserve delayed %v, want 1s", d)
	}
}

func TestUnlimitedGroup(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", 0, 0)
	for i := 0; i < 100; i++ {
		if d := c.Reserve(g, Read, 1<<20); d != 0 {
			t.Fatalf("unlimited group delayed %v", d)
		}
	}
}

func TestZeroAndNegativeBytes(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", 10, 10)
	if d := c.Reserve(g, Read, 0); d != 0 {
		t.Fatal("zero bytes delayed")
	}
	if d := c.Reserve(g, Read, -5); d != 0 {
		t.Fatal("negative bytes delayed")
	}
}

func TestWaitHonorsContext(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	c := NewController(WithClock(fc.Now)) // real sleeping
	g, _ := c.SetGroup("vm1", 10, 0)      // 10 B/s: next reserve waits ~100 s
	c.Reserve(g, Read, 10)                // drain the burst... burst=10
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Wait(ctx, g, Read, 1000)
	if err == nil {
		t.Fatal("Wait did not fail under a tight deadline")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Wait blocked past the context deadline")
	}
}

func TestWaitNoDelayPath(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", units.MBps(10), 0)
	if err := c.Wait(context.Background(), g, Read, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(nil, g, Read, 100); err != nil {
		t.Fatal(err)
	}
}

func TestSetGroupReconfigures(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", 100, 0)
	c.Reserve(g, Read, 100) // drain the burst entirely
	// Reconfiguration carries the (empty) fill level over: no free burst.
	g2, _ := c.SetGroup("vm1", 1000, 0)
	if g2 != g {
		t.Fatal("reconfiguration replaced the group object")
	}
	if d := c.Reserve(g, Read, 1000); d != time.Second {
		t.Fatalf("reconfigured empty bucket delayed %v, want 1s", d)
	}
}

func TestSetGroupCarriesFillFraction(t *testing.T) {
	c, _ := fakeController()
	g, _ := c.SetGroup("vm1", 1000, 0)
	c.Reserve(g, Read, 500) // half the burst left
	c.SetGroup("vm1", 2000, 0)
	// Half of the new 2000-token burst = 1000 tokens available.
	if d := c.Reserve(g, Read, 1000); d != 0 {
		t.Fatalf("carried tokens delayed %v", d)
	}
	if d := c.Reserve(g, Read, 2000); d != time.Second {
		t.Fatalf("post-carry reserve delayed %v, want 1s", d)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op strings wrong")
	}
}

// TestWaitFakeClockDeadline is the regression for the deadline
// short-circuit measuring the context deadline with the wall clock while
// the reservation used the injectable clock: a deadline expressed in
// fake-clock time (epoch era) is hugely in the wall's past, so Wait
// spuriously returned DeadlineExceeded for a perfectly affordable delay.
func TestWaitFakeClockDeadline(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	c := NewController(WithClock(fc.Now)) // real sleeping for the timer path
	g, _ := c.SetGroup("vm1", 1000, 0)
	c.Reserve(g, Read, 1000) // drain the burst
	// The deadline is expressed in the fake clock's (epoch-era) time base,
	// as a fake-clock test harness would do. Wall-clock math would see it
	// ~56 years in the past and spuriously refuse an affordable 50ms wait.
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := fakeDeadlineCtx{Context: base, deadline: fc.Now().Add(10 * time.Second)}
	if err := c.Wait(ctx, g, Read, 50); err != nil {
		t.Fatalf("Wait failed under an affordable fake-clock deadline: %v", err)
	}
	// And a genuinely unaffordable fake-clock deadline still short-circuits.
	c.Reserve(g, Read, 1000) // back into debt
	ctx2 := fakeDeadlineCtx{Context: base, deadline: fc.Now().Add(time.Millisecond)}
	start := time.Now()
	if err := c.Wait(ctx2, g, Read, 1000); err == nil {
		t.Fatal("Wait ignored an unaffordable deadline")
	} else if time.Since(start) > 500*time.Millisecond {
		t.Fatal("unaffordable deadline did not short-circuit")
	}
}

// fakeDeadlineCtx reports a deadline in the fake clock's time base while
// inheriting a live (never-firing) Done channel.
type fakeDeadlineCtx struct {
	context.Context
	deadline time.Time
}

func (f fakeDeadlineCtx) Deadline() (time.Time, bool) { return f.deadline, true }

func TestSetGroupQoSValidation(t *testing.T) {
	c, _ := fakeController()
	if _, err := c.SetGroupQoS("", GroupConfig{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.SetGroupQoS("g", GroupConfig{ReadAssured: -1}); err == nil {
		t.Fatal("negative assured accepted")
	}
	if _, err := c.SetGroupQoS("g", GroupConfig{ReadAssured: 100, ReadCeil: 50}); err == nil {
		t.Fatal("ceil below assured accepted")
	}
	if _, err := c.SetGroupQoS("g", GroupConfig{WriteAssured: 100, WriteCeil: 50}); err == nil {
		t.Fatal("write ceil below assured accepted")
	}
	if _, err := c.SetGroupQoS("g", GroupConfig{ReadCeil: 100}); err == nil {
		t.Fatal("ceil without assured accepted")
	}
	if _, err := c.SetGroupQoS("g", GroupConfig{WriteCeil: 100}); err == nil {
		t.Fatal("write ceil without assured accepted")
	}
	if err := c.SetRoot(-1, 0); err == nil {
		t.Fatal("negative root accepted")
	}
}

func TestRemoveGroup(t *testing.T) {
	c, _ := fakeController()
	c.SetGroup("vm1", 100, 100)
	if !c.RemoveGroup("vm1") {
		t.Fatal("RemoveGroup missed an existing group")
	}
	if _, ok := c.Group("vm1"); ok {
		t.Fatal("group survived removal")
	}
	if c.RemoveGroup("vm1") {
		t.Fatal("RemoveGroup reported a phantom group")
	}
}

// TestBorrowRunsAtCeil drives a single active group whose idle sibling's
// reservation leaves root spare: the active group must sustain its ceil
// (double its assured floor), the work-conserving win.
func TestBorrowRunsAtCeil(t *testing.T) {
	c, fc := fakeController()
	c.SetRoot(1000, 0)
	a, _ := c.SetGroupQoS("a", GroupConfig{ReadAssured: 500, ReadCeil: 1000})
	c.SetGroupQoS("b", GroupConfig{ReadAssured: 500, ReadCeil: 1000}) // idle sibling
	const chunk = 100
	var total int
	var elapsed time.Duration
	for total < 100_000 {
		d := c.Reserve(a, Read, chunk)
		fc.Advance(d)
		elapsed += d
		total += chunk
	}
	rate := float64(total) / elapsed.Seconds()
	if rate < 950 || rate > 1100 {
		t.Fatalf("borrower sustained %.0f B/s, want ~1000 (its ceil)", rate)
	}
	st := c.Stats()
	if st.Borrows == 0 || st.BorrowedBytes == 0 {
		t.Fatalf("no borrowing recorded: %+v", st)
	}
}

// TestFlatGroupStaysAtAssured proves a group without ceil headroom cannot
// borrow even when the root pool has spare: the (1,1,1) baseline shape.
func TestFlatGroupStaysAtAssured(t *testing.T) {
	c, fc := fakeController()
	c.SetRoot(1000, 0)
	a, _ := c.SetGroupQoS("a", GroupConfig{ReadAssured: 500, ReadCeil: 500})
	const chunk = 100
	var total int
	var elapsed time.Duration
	for total < 100_000 {
		d := c.Reserve(a, Read, chunk)
		fc.Advance(d)
		elapsed += d
		total += chunk
	}
	rate := float64(total) / elapsed.Seconds()
	if rate < 475 || rate > 550 {
		t.Fatalf("flat group sustained %.0f B/s, want ~500 (its assured rate)", rate)
	}
	if st := c.Stats(); st.Borrows != 0 || st.BorrowedBytes != 0 {
		t.Fatalf("flat group borrowed: %+v", st)
	}
}

// TestReclaimWhenSiblingWakes: a lone borrower runs at its ceil, then its
// sibling wakes and starts consuming — the borrower's loan shrinks to
// whatever the sibling leaves idle, while the sibling, running under its
// assured floor, never waits a single nanosecond.
func TestReclaimWhenSiblingWakes(t *testing.T) {
	c, fc := fakeController()
	c.SetRoot(1000, 0)
	a, _ := c.SetGroupQoS("a", GroupConfig{ReadAssured: 500, ReadCeil: 1000})
	b, _ := c.SetGroupQoS("b", GroupConfig{ReadAssured: 500, ReadCeil: 1000})
	const chunk = 100
	// Phase 1: A alone reaches its ceil (~1000 B/s).
	var d1 time.Duration
	var bytes1 int
	for bytes1 < 50_000 {
		d := c.Reserve(a, Read, chunk)
		fc.Advance(d)
		d1 += d
		bytes1 += chunk
	}
	if rate := float64(bytes1) / d1.Seconds(); rate < 950 || rate > 1150 {
		t.Fatalf("lone borrower sustained %.0f B/s, want ~1000", rate)
	}
	// Phase 2: B wakes and consumes 100 B per round against A's 200. B's
	// demand (1/3 of the issue stream) stays under its floor, so B must
	// never be delayed; A keeps only the spare B leaves idle. With charges
	// of 300 B per round draining the 1000 B/s root, rounds settle at
	// 0.3 s: A gets 200/0.3 ≈ 667 B/s — above its 500 floor (still
	// borrowing) but well off its 1000 ceil (the loan was reclaimed).
	var elapsed time.Duration
	var aBytes int
	for round := 0; round < 500; round++ {
		dA := c.Reserve(a, Read, 2*chunk)
		dB := c.Reserve(b, Read, chunk)
		if dB != 0 {
			t.Fatalf("round %d: sibling under its floor was delayed %v", round, dB)
		}
		fc.Advance(dA)
		elapsed += dA
		aBytes += 2 * chunk
	}
	aRate := float64(aBytes) / elapsed.Seconds()
	if aRate < 580 || aRate > 760 {
		t.Fatalf("borrower ran at %.0f B/s after sibling woke, want ~667", aRate)
	}
	st := c.Stats()
	if st.Borrows == 0 || st.BorrowedBytes == 0 {
		t.Fatalf("no borrowing recorded: %+v", st)
	}
	if st.AssuredBytes == 0 {
		t.Fatalf("no assured accounting: %+v", st)
	}
}

// TestUnlimitedGroupChargesRoot: an unlimited group's traffic still drains
// the lending pool so borrowers see the real disk load.
func TestUnlimitedGroupChargesRoot(t *testing.T) {
	c, _ := fakeController()
	c.SetRoot(1000, 0)
	u, _ := c.SetGroup("bulk", 0, 0)
	a, _ := c.SetGroupQoS("a", GroupConfig{ReadAssured: 500, ReadCeil: 1000})
	c.Reserve(u, Read, 1000) // drain the root burst entirely
	c.Reserve(a, Read, 500)  // drain A's assured burst
	// A's next chunk finds no spare: paced at assured rate, and the failed
	// borrow counts as a reclaim.
	if d := c.Reserve(a, Read, 100); d != 200*time.Millisecond {
		t.Fatalf("borrow found phantom spare: delayed %v, want 200ms", d)
	}
	if st := c.Stats(); st.Reclaims == 0 {
		t.Fatalf("dry-pool borrow not counted as reclaim: %+v", st)
	}
}

func TestMetricsWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	c, fc := fakeController()
	c.SetMetrics(m)
	c.SetRoot(1000, 0)
	a, _ := c.SetGroupQoS("a", GroupConfig{ReadAssured: 500, ReadCeil: 1000})
	c.SetGroupQoS("b", GroupConfig{ReadAssured: 500, ReadCeil: 1000})
	for total := 0; total < 20_000; total += 100 {
		fc.Advance(c.Reserve(a, Read, 100))
	}
	got := scrapeBlkio(t, reg)
	if got[`dfsqos_blkio_bytes_total{source="assured"}`] == 0 || got[`dfsqos_blkio_bytes_total{source="borrowed"}`] == 0 {
		t.Fatalf("byte split not exported: %v", got)
	}
	if got["dfsqos_blkio_borrows_total"] == 0 {
		t.Fatal("borrows not exported")
	}
	if got["dfsqos_blkio_groups"] != 2 {
		t.Fatalf("groups gauge = %v, want 2", got["dfsqos_blkio_groups"])
	}
	c.RemoveGroup("b")
	if got := scrapeBlkio(t, reg)["dfsqos_blkio_groups"]; got != 1 {
		t.Fatalf("groups gauge after removal = %v, want 1", got)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	want := []string{"dfsqos_blkio_bytes_total", "dfsqos_blkio_borrows_total",
		"dfsqos_blkio_reclaims_total", "dfsqos_blkio_throttle_wait_seconds",
		"dfsqos_blkio_groups"}
	for _, w := range want {
		if !strings.Contains(text.String(), "# TYPE "+w+" ") {
			t.Errorf("series %s not registered:\n%s", w, text.String())
		}
	}
}

// scrapeBlkio renders reg and returns its dfsqos_blkio_* counter and gauge
// series, keyed by name and labels as the exposition spells them.
func scrapeBlkio(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "dfsqos_blkio_") || strings.HasPrefix(line, "dfsqos_blkio_throttle_wait_seconds") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// blkioSeries is what every dfsqos_blkio_* counter and gauge of a registry
// the controllers cs are attached to must read: the sum of their Stats and
// group counts.
func blkioSeries(cs ...*Controller) map[string]float64 {
	want := map[string]float64{
		`dfsqos_blkio_bytes_total{source="assured"}`:  0,
		`dfsqos_blkio_bytes_total{source="borrowed"}`: 0,
		"dfsqos_blkio_borrows_total":                  0,
		"dfsqos_blkio_reclaims_total":                 0,
		"dfsqos_blkio_groups":                         0,
	}
	for _, c := range cs {
		st := c.Stats()
		want[`dfsqos_blkio_bytes_total{source="assured"}`] += float64(st.AssuredBytes)
		want[`dfsqos_blkio_bytes_total{source="borrowed"}`] += float64(st.BorrowedBytes)
		want["dfsqos_blkio_borrows_total"] += float64(st.Borrows)
		want["dfsqos_blkio_reclaims_total"] += float64(st.Reclaims)
		want["dfsqos_blkio_groups"] += float64(len(c.Groups()))
	}
	return want
}

func checkBlkioSeries(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Errorf("%s: series %v, want %v", what, got, want)
	}
}

// After borrows, reclaims and byte splits on two controllers sharing one
// registry, each dfsqos_blkio_* series reads what their Stats and group
// tables say, summed; the byte split adds up to the bytes admitted
// exactly, fractional borrows included; and a controller taken out with
// Unbind leaves the sums.
func TestMetricsReadTheControllerAtScrapeTime(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, fc := fakeController()
	m := NewMetrics(reg)
	c.SetMetrics(m)
	other, _ := fakeController()
	other.SetMetrics(NewMetrics(reg))
	checkBlkioSeries(t, "at start", scrapeBlkio(t, reg), blkioSeries(c, other))

	// A borrower runs past its floor on an idle disk, then its sibling
	// wakes and drains the pool, so the borrower's demand is reclaimed.
	// Odd rates make the borrowed amounts fractional.
	c.SetRoot(1003, 0)
	a, _ := c.SetGroupQoS("a", GroupConfig{ReadAssured: 301, ReadCeil: 1003})
	b, _ := c.SetGroupQoS("b", GroupConfig{ReadAssured: 701, ReadCeil: 701})
	admitted := uint64(0)
	for i := 0; i < 200; i++ {
		n := 97 + i%13
		fc.Advance(c.Reserve(a, Read, n) / 2)
		admitted += uint64(n)
		if i >= 100 {
			c.Reserve(b, Read, 211)
			admitted += 211
		}
	}
	unlimited, _ := other.SetGroup("u", 0, 0)
	other.Reserve(unlimited, Write, 4096)

	st := c.Stats()
	if st.Borrows == 0 || st.Reclaims == 0 || st.BorrowedBytes == 0 {
		t.Fatalf("the script did not move every count: %+v", st)
	}
	if st.AssuredBytes+st.BorrowedBytes != admitted {
		t.Errorf("assured %d + borrowed %d = %d, want the %d bytes admitted",
			st.AssuredBytes, st.BorrowedBytes, st.AssuredBytes+st.BorrowedBytes, admitted)
	}
	checkBlkioSeries(t, "after the script", scrapeBlkio(t, reg), blkioSeries(c, other))

	m.Unbind()
	checkBlkioSeries(t, "after Unbind", scrapeBlkio(t, reg), blkioSeries(other))
	c.SetMetrics(NewMetrics(reg)) // a restarted node attaches the disk it inherited
	checkBlkioSeries(t, "re-attached", scrapeBlkio(t, reg), blkioSeries(c, other))
}

// A scrape runs concurrently with Reserve and group churn (run under
// -race).
func TestMetricsScrapeDuringReserves(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewController()
	c.SetMetrics(NewMetrics(reg))
	c.SetRoot(units.Mbps(1000), 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", w)
			for i := 0; i < 300; i++ {
				g, _ := c.SetGroupQoS(name, GroupConfig{ReadAssured: units.Mbps(10), ReadCeil: units.Mbps(100)})
				c.Reserve(g, Read, 4096)
				if i%3 == 0 {
					c.RemoveGroup(name)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			scrapeBlkio(t, reg)
		}
	}()
	wg.Wait()
	<-done
	checkBlkioSeries(t, "after the race", scrapeBlkio(t, reg), blkioSeries(c))
}

// Property: cumulative admitted bytes never exceed burst + rate×elapsed.
func TestNeverExceedsRateProperty(t *testing.T) {
	f := func(chunks []uint16) bool {
		c, fc := fakeController()
		const rate = 5000.0
		g, _ := c.SetGroup("vm", units.BytesPerSec(rate), 0)
		var admitted float64
		var elapsed time.Duration
		for _, ch := range chunks {
			n := int(ch%2000) + 1
			d := c.Reserve(g, Read, n)
			fc.Advance(d)
			elapsed += d
			admitted += float64(n)
			// Allowed = initial burst + refill over elapsed time, plus the
			// final in-flight reservation which is already paid for by d.
			allowed := rate + rate*elapsed.Seconds() + 2000
			if admitted > allowed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
