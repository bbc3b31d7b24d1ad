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
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
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
		Catalog:     cat,
		Caps:        []units.BytesPerSec{units.Mbps(8), units.Mbps(100)},
		Holders:     map[ids.FileID][]ids.RMID{hot: {1}},
		Replication: repCfg,
		Rand:        rng.New(17),
		RM: func(opt *rm.Options, disk *vdisk.Disk, peers *Directory) {
			opt.Copier = NewCopier(disk, peers, 1)
		},
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
	if vdisk.ChecksumBytes(buf.Bytes()) != srcSum {
		t.Fatal("replica content differs from source content")
	}
	src.Close(1)
}

// TestLiveStoreFile exercises the write path over TCP: remote admission
// via StoreFile, then the data bytes via WriteFile, then a checksummed
// read back.
func TestLiveStoreFile(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
	})

	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.Catalog.File(2)
	err := cli.StoreFile(ecnp.StoreRequest{
		File: 2, Bitrate: meta.Bitrate, SizeBytes: meta.Size, DurationSec: meta.DurationSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate store is refused remotely.
	if err := cli.StoreFile(ecnp.StoreRequest{File: 2, Bitrate: meta.Bitrate, SizeBytes: meta.Size, DurationSec: meta.DurationSec}); err == nil {
		t.Fatal("duplicate remote store accepted")
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
	if !lc.Node(1).HasFile(2) {
		t.Fatal("RM does not own the stored file")
	}
}
