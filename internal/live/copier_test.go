package live

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestLiveReplicationMovesRealBytes wires the DataCopier so a dynamic
// replication physically streams the file to the destination's disk, then
// verifies byte-for-byte integrity and that reads from the new replica
// serve the copied content.
func TestLiveReplicationMovesRealBytes(t *testing.T) {
	repCfg := replication.DefaultConfig(replication.Rep(1, 8))
	repCfg.CooldownSec = 0.01
	repCfg.Speed = units.Mbps(400) // fast copy in wall time

	// Every file is a 2 MB clip: 8 seconds at 2 Mbit/s.
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cfg.MinDurationSec, cfg.MeanDurationSec, cfg.MaxDurationSec = 8, 8, 8
	cfg.BitrateJitter = 0
	cfg.Classes = []catalog.BitrateClass{{Name: "clip", Bitrate: units.Mbps(2), Weight: 1}}
	cat, err := catalog.Generate(cfg, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	hot := ids.FileID(3)
	hotSize := cat.File(hot).Size
	lc := startLocal(t, LocalSpec{
		Catalog: cat,
		Caps:    []units.BytesPerSec{units.Mbps(8), units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{hot: {1}},
		RM:      RMSpec{Replication: repCfg},
		Rand:    rng.New(17),
	})

	// Overload RM1 and fire the trigger.
	src := lc.Node(1)
	src.Open(ecnp.OpenRequest{Request: 1, File: hot, Bitrate: units.Mbps(7.5), DurationSec: 3600})
	src.HandleCFP(ecnp.CFP{Request: 2, File: hot, Bitrate: units.Mbps(2), DurationSec: 8})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if lc.Node(2).HasFile(hot) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !lc.Node(2).HasFile(hot) {
		t.Fatal("replica never landed on RM2")
	}

	// The destination disk holds the exact source bytes.
	srcSum, err := lc.Disk(1).Checksum(FileName(hot))
	if err != nil {
		t.Fatal(err)
	}
	dstSum, err := lc.Disk(2).Checksum(FileName(hot))
	if err != nil {
		t.Fatal(err)
	}
	if srcSum != dstSum {
		t.Fatalf("replica checksum %x differs from source %x", dstSum, srcSum)
	}

	// A read from the new replica over TCP serves the copied content.
	cli, ok := lc.Dir.RMClient(2)
	if !ok {
		t.Fatal("RM2 unreachable")
	}
	var buf bytes.Buffer
	n, err := readWhole(cli, hot, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(hotSize) {
		t.Fatalf("read %d bytes from replica, want %d", n, hotSize)
	}
	if wire.ChecksumUpdate(wire.ChecksumBasis, buf.Bytes()) != srcSum {
		t.Fatal("replica content differs from source content")
	}
	src.Close(1)
}

// TestLiveWriteOpen exercises the write path over TCP: one write-open
// stores the file, provisions it on the disk and registers it with the MM;
// a second is refused as already stored; then the data bytes follow via
// WriteFile and read back checksummed.
func TestLiveWriteOpen(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
	})

	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.Catalog.File(2)
	write := ecnp.OpenRequest{Request: 1, File: 2, Bitrate: meta.Bitrate, SizeBytes: meta.Size, DurationSec: meta.DurationSec}
	if res := cli.Open(write); !res.OK {
		t.Fatalf("write-open refused: %s", res.Reason)
	}
	defer cli.Close(1)
	if !lc.Node(1).HasFile(2) {
		t.Fatal("RM does not own the stored file")
	}
	if hs := lc.Mapper.Lookup(2); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("the MM maps the written file on %v, want [RM1]", hs)
	}
	if size, err := lc.Disk(1).Stat(FileName(2)); err != nil || size != meta.Size {
		t.Fatalf("disk holds %v (%v) of the written file, want %v", size, err, meta.Size)
	}
	// A second write of the file is refused remotely.
	write.Request = 2
	if res := cli.Open(write); res.OK || res.Code != ecnp.ErrAlreadyStored {
		t.Fatalf("duplicate remote write: %+v, want %s", res, ecnp.ErrAlreadyStored.Label())
	}
	// Upload explicit bytes and read them back verified.
	payload := bytes.Repeat([]byte("storage-qos!"), 4096)
	if err := cli.WriteFile(context.Background(), 2, 0, int64(len(payload)), bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := readWhole(cli, 2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) || !bytes.Equal(buf.Bytes(), payload) {
		t.Fatalf("read back %d bytes, mismatch", n)
	}
}

// wantNothingStored fails t unless RM1 holds nothing of file: no file, no
// storage and no reservations (RM1, which reports onto reg, starts empty),
// no MM holder and no bytes on its disk.
func wantNothingStored(t *testing.T, lc *Local, reg *telemetry.Registry, file ids.FileID) {
	t.Helper()
	node := lc.Node(1)
	if node.HasFile(file) {
		t.Errorf("RM1 holds %v after a failed write", file)
	}
	if got := seriesValue(t, reg, "dfsqos_rm_storage_used_bytes"); got != 0 {
		t.Errorf("RM1 storage %v after a failed write, want 0", got)
	}
	if n := node.ActiveReservations(); n != 0 {
		t.Errorf("RM1 holds %d reservation(s) after a failed write", n)
	}
	if hs := lc.Mapper.Lookup(file); len(hs) != 0 {
		t.Errorf("the MM maps %v on %v after a failed write", file, hs)
	}
	if _, err := lc.Disk(1).Stat(FileName(file)); err == nil {
		t.Errorf("RM1's disk holds %v after a failed write", file)
	}
}

// TestLiveAbortedOfferFreesItsDiskBytes: an offer of half the disk,
// accepted (provisioned) and then aborted, gives its bytes back to the
// vdisk as well as to the RM's accounting, so a write of just over half
// the disk then fits.
func TestLiveAbortedOfferFreesItsDiskBytes(t *testing.T) {
	reg := telemetry.NewRegistry()
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
		RM:   RMSpec{Registry: reg},
	})
	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	disk := lc.Disk(1)
	if n, used := lc.Node(1).NumFiles(), seriesValue(t, reg, "dfsqos_rm_storage_used_bytes"); n != 0 || used != 0 {
		t.Fatalf("RM1 starts with %d file(s) and %v bytes accounted, want an empty RM", n, used)
	}
	half := disk.Capacity() / 2
	offer := ecnp.ReplicaOffer{Replication: 7, File: 6, SizeBytes: half, Bitrate: units.Mbps(1), DurationSec: 60, Rate: units.Mbps(1), Source: 2}
	if !cli.OfferReplica(offer) {
		t.Fatal("offer refused")
	}
	if size, err := disk.Stat(FileName(6)); err != nil || size != half {
		t.Fatalf("disk holds %v (%v) of the accepted offer, want %v", size, err, half)
	}
	cli.FinishReplica(7, false)
	if _, err := disk.Stat(FileName(6)); err == nil {
		t.Fatal("disk still holds the aborted offer")
	}
	if got := seriesValue(t, reg, "dfsqos_rm_storage_used_bytes"); got != 0 {
		t.Fatalf("RM1 accounts %v bytes after the offer was aborted, want 0", got)
	}
	if res := cli.Open(ecnp.OpenRequest{Request: 1, File: 7, Bitrate: units.Mbps(1), SizeBytes: half + units.MB, DurationSec: 60}); !res.OK {
		t.Fatalf("write-open of just over half the disk after the abort: %s", res.Reason)
	}
	cli.Close(1)
	if size, err := disk.Stat(FileName(7)); err != nil || size != half+units.MB {
		t.Fatalf("disk holds %v (%v) of the write, want %v", size, err, half+units.MB)
	}
}

// TestLiveWriteFailingProvisionStoresNothing: bytes put on the vdisk
// behind the RM's back make the disk fuller than the RM's accounting. A
// write-open the RM's accounting admits then fails to provision on the
// disk, and it must be refused as disk full with nothing of it left
// behind.
func TestLiveWriteFailingProvisionStoresNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
		RM:   RMSpec{Registry: reg},
	})
	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	free := lc.Disk(1).Capacity() // RM1 holds nothing
	if err := lc.Disk(1).Provision("stray", free/2); err != nil {
		t.Fatal(err)
	}
	res := cli.Open(ecnp.OpenRequest{Request: 1, File: 7, Bitrate: units.Mbps(1), SizeBytes: free/2 + units.MB, DurationSec: 60})
	if res.OK || res.Code != ecnp.ErrDiskFull {
		t.Fatalf("write-open past the disk: %+v, want %s", res, ecnp.ErrDiskFull.Label())
	}
	wantNothingStored(t, lc, reg, 7)
}

// TestLiveWriteUnregisteredStoresNothing: the MM refuses to register the
// written file (a fault script on AddReplica), so the write-open fails
// and leaves nothing on the RM or its disk; once the MM answers, the
// same write succeeds.
func TestLiveWriteUnregisteredStoresNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
		MM:   MMSpec{Faults: "mm.handle:match=AddReplica:count=1:action=error"},
		RM:   RMSpec{Registry: reg},
	})
	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.Catalog.File(3)
	write := ecnp.OpenRequest{Request: 1, File: 3, Bitrate: meta.Bitrate, SizeBytes: meta.Size, DurationSec: meta.DurationSec}
	if res := cli.Open(write); res.OK {
		t.Fatal("write-open admitted although the MM refused its registration")
	}
	wantNothingStored(t, lc, reg, 3)
	if res := cli.Open(write); !res.OK {
		t.Fatalf("write-open once the MM answers: %s", res.Reason)
	}
	cli.Close(1)
	if !lc.Node(1).HasFile(3) || len(lc.Mapper.Lookup(3)) != 1 {
		t.Fatal("the second write did not store and register the file")
	}
}
