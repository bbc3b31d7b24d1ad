package live

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
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
		Caps:        []units.BytesPerSec{units.Mbps(5), units.Mbps(100)},
		Holders:     map[ids.FileID][]ids.RMID{0: {1}},
		TimeScale:   1000,
		Replication: cfg,
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

// TestLiveReplicationRefusalText: the MM's refusals are bare reasons
// in-process; over TCP the server adds the file, RM and cap to the text,
// and the client still sees a wire.RemoteError that matches no sentinel
// (there is no reason code on the wire).
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
	}{
		{cli.BeginReplication(1, 2, 1), "mm: file already at its replica cap: file1 on RM2 (cap 1)"},
		{cli.BeginReplication(1, 1, 0), "mm: destination already holds the file: file1 on RM1 (cap 0)"},
		{cli.BeginReplication(1, 7, 0), "mm: replication destination is not a registered RM: file1 on RM7 (cap 0)"},
		{cli.EndReplication(1, 2, true), "mm: no pending replication of the file on the RM: file1 on RM2"},
	} {
		var re wire.RemoteError
		if !errors.As(tc.err, &re) {
			t.Fatalf("%v: not a wire.RemoteError", tc.err)
		}
		if re.Text != tc.want {
			t.Errorf("served text %q, want %q", re.Text, tc.want)
		}
		if errors.Is(tc.err, ecnp.ErrReplicaCap) {
			t.Errorf("%v matches ErrReplicaCap across the wire", tc.err)
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
	// Cancellation.
	cancel := s.After(1e6, func(simtime.Time) { t.Error("canceled timer fired") })
	if !cancel() {
		t.Fatal("cancel returned false")
	}
	if cancel() {
		t.Fatal("double cancel returned true")
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
