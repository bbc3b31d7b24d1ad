package live

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
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
	mmSrv, err := NewMMServer(mm.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mmSrv.Close()
	sched := NewWallScheduler(100)
	defer sched.Stop()

	repCfg := replication.DefaultConfig(replication.Rep(1, 8))
	repCfg.CooldownSec = 0.01
	repCfg.Speed = units.Mbps(400) // fast copy in wall time

	hot := ids.FileID(3)
	const hotSize = 2 * units.MB
	master := rng.New(17)

	type nodeSet struct {
		srv  *RMServer
		disk *vdisk.Disk
	}
	var nodes []nodeSet
	for i, capBW := range []units.BytesPerSec{units.Mbps(8), units.Mbps(100)} {
		id := ids.RMID(i + 1)
		ctrl := blkio.NewController()
		disk, err := vdisk.New(64*units.MB, ctrl, fmt.Sprintf("vm%d", id), capBW, capBW)
		if err != nil {
			t.Fatal(err)
		}
		files := map[ids.FileID]rm.FileMeta{}
		if id == 1 {
			files[hot] = rm.FileMeta{Bitrate: units.Mbps(2), Size: hotSize, DurationSec: 8}
			if err := disk.Provision(FileName(hot), hotSize); err != nil {
				t.Fatal(err)
			}
		}
		mapperCli, err := DialMM(mmSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		dir := NewDirectory(mapperCli)
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: 64 * units.MB},
			Scheduler:   sched,
			Mapper:      mapperCli,
			History:     history.DefaultConfig(),
			Replication: repCfg,
			Rand:        master.Split(id.String()),
			Files:       files,
			Copier:      NewCopier(disk, dir, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewRMServer(node, disk, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		info := node.Info()
		info.Addr = srv.Addr()
		fileIDs := make([]ids.FileID, 0, len(files))
		for f := range files {
			fileIDs = append(fileIDs, f)
		}
		if err := mapperCli.RegisterRM(info, fileIDs); err != nil {
			t.Fatal(err)
		}
		node.SetDirectory(dir)
		nodes = append(nodes, nodeSet{srv: srv, disk: disk})
	}

	// Overload RM1 and fire the trigger.
	src := nodes[0].srv.Node()
	src.Open(ecnp.OpenRequest{Request: 1, File: hot, Bitrate: units.Mbps(7.5), DurationSec: 3600})
	src.HandleCFP(ecnp.CFP{Request: 2, File: hot, Bitrate: units.Mbps(2), DurationSec: 8})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if nodes[1].srv.Node().HasFile(hot) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !nodes[1].srv.Node().HasFile(hot) {
		t.Fatal("replica never landed on RM2")
	}

	// The destination disk holds the exact source bytes.
	srcSum, err := nodes[0].disk.Checksum(FileName(hot))
	if err != nil {
		t.Fatal(err)
	}
	dstSum, err := nodes[1].disk.Checksum(FileName(hot))
	if err != nil {
		t.Fatal(err)
	}
	if srcSum != dstSum {
		t.Fatalf("replica checksum %x differs from source %x", dstSum, srcSum)
	}

	// A read from the new replica over TCP serves the copied content.
	mapperCli, err := DialMM(mmSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mapperCli.Close()
	dir := NewDirectory(mapperCli)
	defer dir.Close()
	cli, ok := dir.RMClient(2)
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
}

// TestLiveStoreFile exercises the write path over TCP: remote admission
// via StoreFile, then the data bytes via WriteFile, then a checksummed
// read back.
func TestLiveStoreFile(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(50)},
		nil,
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	cli, ok := lc.dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.cat.File(2)
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
	if !lc.rmSrvs[0].Node().HasFile(2) {
		t.Fatal("RM does not own the stored file")
	}
}
