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

	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/fsapi"
	"dfsqos/internal/ids"
	"dfsqos/internal/invariants"
	"dfsqos/internal/live"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
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

	// 1. The MM starts first (paper Fig. 2). 2. Three RMs register, each
	// with its own throttled virtual disk holding every clip. 3. The DFSC
	// launches last, mounted through the FUSE-style surface.
	master := rng.New(11)
	caps := []units.BytesPerSec{units.Mbps(64), units.Mbps(24), units.Mbps(24)}
	holders := make(map[ids.FileID][]ids.RMID)
	for _, f := range cat.Files() {
		holders[f.ID] = []ids.RMID{1, 2, 3}
	}
	lc, err := live.NewLocal(live.LocalSpec{
		Catalog:   cat,
		Caps:      caps,
		Holders:   holders,
		TimeScale: 50, // 50 virtual seconds per wall second
		Rand:      master,
	})
	check(err)
	defer lc.Close()
	fmt.Printf("metadata manager on %s\n", lc.MM.Addr())
	for i, capBW := range caps {
		id := ids.RMID(i + 1)
		fmt.Printf("%v (%v) on %s\n", id, capBW, lc.Server(id).Addr())
	}

	client, err := dfsc.New(dfsc.Options{
		ID: 1, Mapper: lc.Mapper, Directory: lc.Dir, Scheduler: lc.Sched,
		Catalog: cat, Policy: selection.RemOnly, Scenario: qos.Firm,
		Rand: master.Split("client"),
	})
	check(err)
	mount, err := fsapi.NewMount(fsapi.Options{
		Client:       client,
		Catalog:      cat,
		Streamer:     lc.Dir,
		ReplicaCount: lc.Mapper.ReplicaCount,
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
	if err := invariants.Check(invariants.System{RMs: lc.Serving(), AtRest: true}); err != nil {
		log.Fatalf("invariants after the reads: %v", err)
	}
	fmt.Println("\nall reservations returned; live cluster shutting down")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
