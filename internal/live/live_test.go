package live

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// startLiveCluster is startLocal over the eight-file catalog most live
// tests share.
func startLiveCluster(t *testing.T, spec LocalSpec) *Local {
	t.Helper()
	spec.Catalog = testCatalog(t, 21, 8, 1, 5, 10)
	return startLocal(t, spec)
}

func TestLiveControlPlaneEndToEnd(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(50), units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}, 2: {2}},
	})

	// The resource list reflects both registrations with dialable addrs.
	infos := lc.Mapper.RMs()
	if len(infos) != 2 {
		t.Fatalf("resource list has %d RMs", len(infos))
	}
	for _, info := range infos {
		if info.Addr == "" {
			t.Fatalf("%v registered without address", info.ID)
		}
	}

	// A DFSC over TCP: query, CFP fan-out, selection, open, close.
	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(77),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Held: no playback-end timer releases it, only the Close below.
	out, release := client.AccessHeld(0)
	if !out.OK {
		t.Fatalf("live access failed: %s", out.Reason)
	}
	served, ok := lc.Dir.RMClient(out.RM)
	if !ok {
		t.Fatal("winner not reachable")
	}

	// Data plane: stream the file and verify size + checksum.
	var buf bytes.Buffer
	n, err := readWhole(served, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(lc.Catalog.File(0).Size) {
		t.Fatalf("streamed %d bytes, want %d", n, lc.Catalog.File(0).Size)
	}

	// Release the reservation over TCP.
	release()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if lc.Node(out.RM).Allocated() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := lc.Node(out.RM).Allocated(); got != 0 {
		t.Fatalf("allocated %v after close", got)
	}
}

func TestLiveFirmRefusalOverTCP(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(5)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	rmCli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	// Saturate RM1, then a firm open must be refused remotely.
	res := rmCli.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(5), DurationSec: 60, Firm: true})
	if !res.OK {
		t.Fatalf("first open refused: %s", res.Reason)
	}
	res = rmCli.Open(ecnp.OpenRequest{Request: 2, File: 0, Bitrate: units.Mbps(1), DurationSec: 60, Firm: true})
	if res.OK {
		t.Fatal("over-capacity firm open admitted")
	}
	rmCli.Close(1)
}

func TestLiveReplicationOverTCP(t *testing.T) {
	cfg := replication.DefaultConfig(replication.Rep(1, 8))
	cfg.CooldownSec = 0.01
	// Use a high replication speed so the copy completes quickly in
	// wall time (the virtual disk is throttled at the RM capacity).
	cfg.Speed = units.Mbps(1000)
	lc := startLiveCluster(t, LocalSpec{
		Caps:      []units.BytesPerSec{units.Mbps(5), units.Mbps(100)},
		Holders:   map[ids.FileID][]ids.RMID{0: {1}},
		TimeScale: 1000,
		RM:        RMSpec{Replication: cfg},
	})

	rm1, _ := lc.Dir.RMClient(1)
	// Saturate RM1 beyond 80%, then a CFP triggers the replication agent,
	// which offers the file to RM2 over TCP.
	rm1.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(4.5), DurationSec: 3600})
	meta := lc.Catalog.File(0)
	rm1.HandleCFP(ecnp.CFP{Request: 2, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if lc.Mapper.ReplicaCount(0) == 2 && lc.Node(2).HasFile(0) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lc.Mapper.ReplicaCount(0) != 2 {
		t.Fatalf("replica count = %d, want 2 after live replication", lc.Mapper.ReplicaCount(0))
	}
	if !lc.Node(2).HasFile(0) {
		t.Fatal("RM2 does not hold the replica")
	}
	rm1.Close(1)
}

// kindCounter is a fault injector that injects nothing and counts, by
// message kind, the requests a server handles.
type kindCounter struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (k *kindCounter) Decide(_ faults.Point, kind string) faults.Decision {
	k.mu.Lock()
	k.kinds[kind]++
	k.mu.Unlock()
	return faults.Proceed
}

func (k *kindCounter) count(kind wire.Kind) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kinds[kind.String()]
}

// TestLiveWalkEndsAtReplicaCap: a source RM whose MM is across TCP reads
// the replica count, and a count at the cap ends the attempt as it does
// in process. RM1 holds a file already at Rep(1,2)'s cap with two other
// holders, and three RMs are candidates; one replication attempt asks the
// MM for the count alone, one round trip: no candidates, no reservation
// and no resource list, so its peers are not resolved, let alone dialled.
func TestLiveWalkEndsAtReplicaCap(t *testing.T) {
	cfg := replication.DefaultConfig(replication.Rep(1, 2))
	caps := []units.BytesPerSec{units.Mbps(5)}
	for range 5 {
		caps = append(caps, units.Mbps(100))
	}
	lc := startLiveCluster(t, LocalSpec{
		Caps:    caps,
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2, 3}},
		RM:      RMSpec{Replication: cfg},
	})
	reg := telemetry.NewRegistry()
	lc.Manager.SetMetrics(mm.NewMetrics(reg))
	if got := len(lc.Mapper.RMsWithout(0)); got != 3 {
		t.Fatalf("%d candidate destinations, want 3", got)
	}

	rm1, _ := lc.Dir.RMClient(1)
	// Push RM1 under B_TH; the CFP then runs one replication attempt
	// before it answers.
	if res := rm1.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(4.5), DurationSec: 3600}); !res.OK {
		t.Fatalf("open refused: %s", res.Reason)
	}
	defer rm1.Close(1)
	meta := lc.Catalog.File(0)
	served := &kindCounter{kinds: make(map[string]int)}
	lc.MM.setFaults(served)
	rm1.HandleCFP(ecnp.CFP{Request: 2, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec})
	lc.MM.setFaults(nil)

	if n := seriesValue(t, reg, `dfsqos_mm_replication_refusals_total{reason="cap"}`); n != 0 {
		t.Fatalf("one attempt on a capped file raised the cap refusals by %v, want 0", n)
	}
	if st := lc.Node(1).Stats(); st.RepCapped != 1 || st.RepTriggers != 0 {
		t.Fatalf("RepCapped = %d, RepTriggers = %d; want 1 and 0", st.RepCapped, st.RepTriggers)
	}
	for _, tc := range []struct {
		kind wire.Kind
		want int
	}{
		{wire.KindReplicaCount, 1},
		{wire.KindRMsWithout, 0},
		{wire.KindBeginReplication, 0},
		{wire.KindRMs, 0},
	} {
		if got := served.count(tc.kind); got != tc.want {
			t.Errorf("the MM served %d %v request(s) during the attempt, want %d", got, tc.kind, tc.want)
		}
	}
	if got := lc.Mapper.ReplicaCount(0); got != 3 {
		t.Fatalf("replica count = %d, want 3 untouched", got)
	}
}

// TestLiveReplicationRefusalText: the MM's refusals are bare reasons
// in-process; over TCP the server adds the file, RM and cap to the text,
// and the client's wire.RemoteError still matches its sentinel with
// errors.Is: the code rides the Error frame ahead of the text.
func TestLiveReplicationRefusalText(t *testing.T) {
	mgr := mm.New()
	for id := ids.RMID(1); id <= 2; id++ {
		info := ecnp.RMInfo{ID: id, Capacity: units.Mbps(10), StorageBytes: units.GB}
		if err := mgr.RegisterRM(info, []ids.FileID{ids.FileID(id)}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewMMServer(mgr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialMM(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for _, tc := range []struct {
		err  error
		want string
		why  ecnp.Refusal
	}{
		{cli.BeginReplication(1, 2, 1), "mm: file already at its replica cap: file1 on RM2 (cap 1)", ecnp.ErrReplicaCap},
		{cli.BeginReplication(1, 1, 0), "mm: destination already holds the file: file1 on RM1 (cap 0)", ecnp.ErrAlreadyHolds},
		{cli.BeginReplication(1, 7, 0), "mm: replication destination is not a registered RM: file1 on RM7 (cap 0)", ecnp.ErrUnregisteredRM},
		{cli.EndReplication(1, 2, true), "mm: no pending replication of the file on the RM: file1 on RM2", ecnp.ErrNoPendingReplication},
	} {
		var re wire.RemoteError
		if !errors.As(tc.err, &re) {
			t.Fatalf("%v: not a wire.RemoteError", tc.err)
		}
		if re.Text != tc.want {
			t.Errorf("served text %q, want %q", re.Text, tc.want)
		}
		if !errors.Is(tc.err, tc.why) || ecnp.RefusalOf(tc.err) != tc.why {
			t.Errorf("%v does not match %s across the wire", tc.err, tc.why.Label())
		}
	}
}

// TestLiveEveryRefusalMatchesItsSentinel serves every ecnp.Refusal over
// TCP, the MM's through an MMClient and the RM's through an RMClient, and
// checks that the client matches each with errors.Is against its
// sentinel: the one vocabulary means the same on both sides of a socket.
func TestLiveEveryRefusalMatchesItsSentinel(t *testing.T) {
	const capped = ids.TenantID(1)
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(10), units.Mbps(10)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}, 1: {1}, 2: {1}},
		RM:      RMSpec{Tenants: map[ids.TenantID]tenant.Quota{capped: {Bandwidth: 1, Bytes: 1}}},
	})
	mapper := lc.Mapper
	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	// open reports a refused open as its code, which is how the RM serves
	// one: in the OpenResult, not as an error. A read opens file 0, which
	// RM1 holds; an open with a size is a write of its file.
	open := func(req ecnp.OpenRequest) error {
		req.DurationSec = 60
		if res := cli.Open(req); !res.OK {
			return res.Code
		}
		return nil
	}
	refusals := map[ecnp.Refusal]func() error{
		ecnp.ErrReplicaCap:     func() error { return mapper.BeginReplication(0, 2, 1) },
		ecnp.ErrAlreadyHolds:   func() error { return mapper.BeginReplication(0, 1, 0) },
		ecnp.ErrUnregisteredRM: func() error { return mapper.BeginReplication(0, 9, 0) },
		ecnp.ErrAlreadyReceiving: func() error {
			if err := mapper.BeginReplication(1, 2, 0); err != nil {
				return err
			}
			defer mapper.EndReplication(1, 2, false)
			return mapper.BeginReplication(1, 2, 0)
		},
		ecnp.ErrNoPendingReplication: func() error { return mapper.EndReplication(2, 2, true) },
		ecnp.ErrDuplicateRequest: func() error {
			if err := open(ecnp.OpenRequest{Request: 1, Bitrate: units.Mbps(1)}); err != nil {
				return err
			}
			defer cli.Close(1)
			return open(ecnp.OpenRequest{Request: 1, Bitrate: units.Mbps(1)})
		},
		ecnp.ErrFirmCapacity:    func() error { return open(ecnp.OpenRequest{Request: 2, Bitrate: units.Mbps(20), Firm: true}) },
		ecnp.ErrTenantBandwidth: func() error { return open(ecnp.OpenRequest{Request: 3, Bitrate: units.Mbps(1), Tenant: capped}) },
		ecnp.ErrTenantBytes: func() error {
			return open(ecnp.OpenRequest{Request: 4, File: 5, SizeBytes: units.MB, Tenant: capped})
		},
		ecnp.ErrDiskFull:      func() error { return open(ecnp.OpenRequest{Request: 5, File: 6, SizeBytes: 2 * units.GB}) },
		ecnp.ErrAlreadyStored: func() error { return open(ecnp.OpenRequest{Request: 6, File: 0, SizeBytes: units.MB}) },
		ecnp.ErrNotReserved:   func() error { return cli.Keepalive(99) },
	}
	for why := ecnp.Refusal(1); why < ecnp.NumRefusals; why++ {
		refuse, ok := refusals[why]
		if !ok {
			t.Errorf("no row serves %s", why.Label())
			continue
		}
		err := refuse()
		if !errors.Is(err, why) {
			t.Errorf("%s: client got %v, which does not match its sentinel", why.Label(), err)
		}
	}
	counted := lc.Node(1).Stats().Refusals
	for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
		if counted[why] != 1 {
			t.Errorf("RM1 counted %d %s refusals, want the one it served", counted[why], why.Label())
		}
	}
}

func TestLiveThrottledStream(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// 2 MB file over a 4 Mbit/s (0.5 MB/s) disk: the burst covers 0.5 MB,
	// the remaining 1.5 MB takes ~3 s.
	lc := startLiveCluster(t, LocalSpec{
		Caps:      []units.BytesPerSec{units.Mbps(4)},
		TimeScale: 1,
	})

	disk := lc.Disk(1)
	if err := disk.Provision(FileName(99), 2*units.MB); err != nil {
		t.Fatal(err)
	}
	rmCli, _ := lc.Dir.RMClient(1)
	start := time.Now()
	var buf bytes.Buffer
	n, err := readWhole(rmCli, 99, &buf)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if n != int64(2*units.MB) {
		t.Fatalf("streamed %d bytes", n)
	}
	if elapsed < 2*time.Second {
		t.Fatalf("2 MB crossed a 0.5 MB/s disk in %v; throttle not applied", elapsed)
	}
	if elapsed > 8*time.Second {
		t.Fatalf("transfer took %v; throttle too aggressive", elapsed)
	}
}

func TestWallScheduler(t *testing.T) {
	s := NewWallScheduler(1000) // 1000 virtual seconds per wall second
	defer s.Stop()
	fired := make(chan simtime.Time, 1)
	s.After(5, func(now simtime.Time) { fired <- now })
	select {
	case now := <-fired:
		if now < 5 {
			t.Fatalf("fired at virtual %v, want ≥ 5", now)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}
	// Zero-delay timers fire while After is still registering them (an
	// RM's replication path schedules these); under `make race` this
	// catches the callback reading its own timer unordered, and every
	// fired timer must have left the set.
	var done, callers sync.WaitGroup
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 500; i++ {
				done.Add(1)
				s.After(0, func(simtime.Time) { done.Done() })
			}
		}()
	}
	callers.Wait()
	done.Wait()
	s.mu.Lock()
	left := len(s.timers)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d fired timers still registered", left)
	}
}

// TestWallSchedulerRunPending: RunPending runs every callback still
// pending, once; Stop runs none.
func TestWallSchedulerRunPending(t *testing.T) {
	s := NewWallScheduler(1)
	var ran atomic.Int32
	for i := 0; i < 3; i++ {
		s.After(1e6, func(simtime.Time) { ran.Add(1) })
	}
	s.RunPending()
	if got := ran.Load(); got != 3 {
		t.Fatalf("RunPending ran %d callbacks, want 3", got)
	}
	s.RunPending()
	s.After(1e6, func(simtime.Time) { t.Error("stopped callback ran") })
	s.Stop()
	s.RunPending()
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d callbacks ran in all, want 3", got)
	}
}

func TestWallSchedulerPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero scale did not panic")
		}
	}()
	NewWallScheduler(0)
}

// readWhole streams the whole file from c into w, verifying size and
// checksum against the server's FileEnd.
func readWhole(c *RMClient, file ids.FileID, w io.Writer) (int64, error) {
	sum := wire.ChecksumBasis
	return c.ReadRange(context.Background(), file, 0, 0, 0, w, &sum)
}

// TestLiveServedErrorsEndStreams: an error the RM serves inside a stream
// reaches the caller as a wire.RemoteError both where a read stream
// expects chunks (a range of a file the RM does not hold) and where an
// upload expects its Ack (a store that overflows the disk once every
// byte has arrived).
func TestLiveServedErrorsEndStreams(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
	})
	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	var re wire.RemoteError
	_, err := cli.ReadRange(context.Background(), 9, 0, 0, 0, io.Discard, nil)
	if !errors.As(err, &re) || !strings.Contains(re.Text, "not found") {
		t.Fatalf("range of an unheld file: err = %v, want a served RemoteError", err)
	}

	disk := lc.Server(1).disk
	if err := disk.Provision("filler", disk.Capacity()-1024); err != nil { // RM1 holds nothing yet
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("overflow"), 1024)
	err = cli.WriteFile(context.Background(), 2, 0, int64(len(payload)), bytes.NewReader(payload))
	if !errors.As(err, &re) || !strings.Contains(re.Text, "overflows disk") {
		t.Fatalf("upload past the free space: err = %v, want a served RemoteError", err)
	}
}

// TestLiveIngestRefusesOversizedDeclaration speaks the inbound-stream
// protocol by hand: a WriteFile frame declaring more bytes than the disk
// holds (or fewer than none) must be answered with a served error at once
// — a stream the disk could never store is refused before any of it is
// read, not after the sender has pushed it all — and the same connection
// must then carry an in-capacity upload through to its Ack.
func TestLiveIngestRefusesOversizedDeclaration(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
	})
	srv := lc.Server(1)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A server that believed the declaration sits waiting for chunks; the
	// deadline turns that into a failure instead of a hang.
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	wc := wire.NewConn(conn)
	for _, size := range []int64{int64(srv.disk.Capacity()) + 1, 1 << 39, -1} {
		_, err := wc.Call(wire.KindWriteFile, wire.WriteFile{File: 2, SizeBytes: size})
		var re wire.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("WriteFile declaring %d bytes: err = %v, want a served RemoteError", size, err)
		}
	}

	payload := bytes.Repeat([]byte("in-capacity!"), 4096)
	sum := wire.ChecksumUpdate(wire.ChecksumBasis, payload)
	if err := wc.Write(wire.KindWriteFile, wire.WriteFile{File: 2, SizeBytes: int64(len(payload))}); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteChunk(0, payload); err != nil {
		t.Fatal(err)
	}
	reply, err := wc.Call(wire.KindFileEnd, wire.FileEnd{Size: int64(len(payload)), Checksum: sum})
	if err != nil || reply.Kind != wire.KindAck {
		t.Fatalf("upload after the refusals: reply %v, err %v, want Ack", reply.Kind, err)
	}
	if got, err := srv.disk.Checksum(FileName(2)); err != nil || got != sum {
		t.Fatalf("stored checksum %x, err %v, want %x", got, err, sum)
	}
}

// TestMMServerEncodesLentHoldersWhileReplicasChange: the MM lends its
// holder list to the server, which encodes it after the manager's lock is
// released, while other sessions add and remove replicas of the same
// file. Every answer is a sorted, duplicate-free set that always includes
// the holder no edit touches; under -race, an edit that wrote into a lent
// list would be reported.
func TestMMServerEncodesLentHoldersWhileReplicasChange(t *testing.T) {
	mgr := mm.New()
	for id := ids.RMID(1); id <= 8; id++ {
		var files []ids.FileID
		if id == 1 {
			files = []ids.FileID{0}
		}
		if err := mgr.RegisterRM(ecnp.RMInfo{ID: id, Capacity: units.Mbps(10)}, files); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewMMServer(mgr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for e := ids.RMID(2); e <= 3; e++ {
		wg.Add(1)
		go func(first ids.RMID) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for rm := first; rm <= 8; rm += 2 {
					if err := mgr.AddReplica(0, rm); err != nil {
						t.Error(err)
						return
					}
				}
				for rm := first; rm <= 8; rm += 2 {
					if err := mgr.RemoveReplica(0, rm); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(e)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := DialMM(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 300; i++ {
				hs := cli.Lookup(0)
				if len(hs) == 0 || hs[0] != 1 || !slices.IsSorted(hs) || len(slices.Compact(slices.Clone(hs))) != len(hs) {
					t.Errorf("lookup %d answered %v", i, hs)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := mgr.Lookup(0); !slices.Equal(got, []ids.RMID{1}) {
		t.Fatalf("holders after every edit undone: %v", got)
	}
}
