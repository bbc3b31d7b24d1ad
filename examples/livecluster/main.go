// Livecluster: the full distributed file system over real TCP on
// localhost — a Metadata Manager server, three Resource Manager servers
// with blkio-throttled virtual disks, and a FUSE-style mount whose
// callbacks drive the ECNP protocol over the network:
//
//	readdir → MM resource query
//	open    → CFP fan-out, bid scoring, bandwidth reservation
//	read    → ranged, checksum-verified transfer under that reservation
//	release → reservation returned
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/fsapi"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
)

func main() {
	// A small catalog of short clips keeps the demo fast.
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = 6
	catCfg.MeanDurationSec = 8
	catCfg.MinDurationSec = 4
	catCfg.MaxDurationSec = 15
	cat, err := catalog.Generate(catCfg, rng.New(7))
	check(err)

	// 1. The MM starts first (paper Fig. 2).
	mmSrv, err := live.NewMMServer(mm.New(), "127.0.0.1:0")
	check(err)
	defer mmSrv.Close()
	fmt.Printf("metadata manager on %s\n", mmSrv.Addr())

	// 2. Three RMs register, each with its own throttled virtual disk.
	sched := live.NewWallScheduler(50) // 50 virtual seconds per wall second
	defer sched.Stop()
	master := rng.New(11)
	caps := []units.BytesPerSec{units.Mbps(64), units.Mbps(24), units.Mbps(24)}
	var servers []*live.RMServer
	for i, capBW := range caps {
		id := ids.RMID(i + 1)
		ctrl := blkio.NewController()
		disk, err := vdiskFor(ctrl, id, capBW)
		check(err)
		files := make(map[ids.FileID]rm.FileMeta)
		for _, f := range cat.Files() {
			// Every RM holds every clip in this demo.
			files[f.ID] = rm.FileMeta{Bitrate: f.Bitrate, Size: f.Size, DurationSec: f.DurationSec}
			check(disk.Provision(live.FileName(f.ID), f.Size))
		}
		mapper, err := live.DialMM(mmSrv.Addr())
		check(err)
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: 4 * units.GB},
			Scheduler:   sched,
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        master.Split(id.String()),
			Files:       files,
		})
		check(err)
		srv, err := live.NewRMServer(node, disk, "127.0.0.1:0")
		check(err)
		defer srv.Close()
		info := node.Info()
		info.Addr = srv.Addr()
		fileIDs := make([]ids.FileID, 0, len(files))
		for f := range files {
			fileIDs = append(fileIDs, f)
		}
		check(mapper.RegisterRM(info, fileIDs))
		node.SetDirectory(live.NewDirectory(mapper))
		servers = append(servers, srv)
		fmt.Printf("%v (%v) on %s\n", id, capBW, srv.Addr())
	}

	// 3. The DFSC launches last, mounted through the FUSE-style surface.
	mapper, err := live.DialMM(mmSrv.Addr())
	check(err)
	defer mapper.Close()
	dir := live.NewDirectory(mapper)
	defer dir.Close()
	client, err := dfsc.New(dfsc.Options{
		ID: 1, Mapper: mapper, Directory: dir, Scheduler: sched,
		Catalog: cat, Policy: selection.RemOnly, Scenario: qos.Firm,
		Rand: master.Split("client"),
	})
	check(err)
	mount, err := fsapi.NewMount(fsapi.Options{
		Client:       client,
		Catalog:      cat,
		Streamer:     dir,
		ReplicaCount: mapper.ReplicaCount,
	})
	check(err)
	defer mount.Destroy()

	names, err := mount.Readdir()
	check(err)
	fmt.Printf("\nreaddir: %d files\n", len(names))

	for _, name := range names[:3] {
		info, err := mount.Getattr(name)
		check(err)
		h, err := mount.Open(name)
		check(err)
		start := time.Now()
		chunk := make([]byte, 128*1024)
		var off int64
		for {
			n, err := mount.Read(h, chunk, off)
			off += int64(n)
			if err == io.EOF {
				break
			}
			check(err)
		}
		secs := time.Since(start).Seconds()
		check(mount.Release(h))
		fmt.Printf("open/read/release %s: %s in %.2fs (%.2f MB/s, %d replicas, bitrate %v)\n",
			name, info.Size, secs, float64(off)/secs/1e6, info.Replicas, info.Bitrate)
	}
	fmt.Println("\nall reservations returned; live cluster shutting down")
}

func vdiskFor(ctrl *blkio.Controller, id ids.RMID, capBW units.BytesPerSec) (*vdisk.Disk, error) {
	return vdisk.New(4*units.GB, ctrl, fmt.Sprintf("vm%d", id), capBW, capBW)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
