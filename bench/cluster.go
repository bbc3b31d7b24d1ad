package main

import (
	"fmt"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
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

// unthrottled is a disk rate so high that blkio.Wait never delays: the
// throttle is "out of the way" and the data plane is CPU-bound.
var unthrottled = units.Mbps(1e6)

// clusterSpec sizes one loopback-TCP deployment. Every file is placed on
// every RM, so placement needs no randomness and a lookup always answers
// all RMs.
type clusterSpec struct {
	rms       int
	capacity  units.BytesPerSec // per-RM disk rate
	files     int
	fileBytes int64
	storage   units.Size // per-RM vdisk size
}

// liveCluster is one MM server plus its RM servers on 127.0.0.1, built
// from public constructors only (the internal/scenario/live.go recipe).
type liveCluster struct {
	spec   clusterSpec
	cat    *catalog.Catalog
	sched  *live.WallScheduler
	mmSrv  *live.MMServer
	rmSrvs []*live.RMServer
	disks  []*vdisk.Disk

	closers []func() // MM connections and directories, closed before the servers
}

// fixedCatalog builds n files of exactly fileBytes each: one bitrate
// class, zero jitter and a clamped duration, so sizes do not depend on
// the seed. The seed only drives which file a client asks for next.
func fixedCatalog(n int, fileBytes int64) (*catalog.Catalog, error) {
	const durationSec = 64
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = n
	cfg.MeanDurationSec = durationSec
	cfg.MinDurationSec = durationSec
	cfg.MaxDurationSec = durationSec
	cfg.BitrateJitter = 0
	cfg.Classes = []catalog.BitrateClass{{
		Name:    "bench",
		Bitrate: units.BytesPerSec(float64(fileBytes) / durationSec),
		Weight:  1,
	}}
	cat, err := catalog.Generate(cfg, rng.New(1))
	if err != nil {
		return nil, err
	}
	for _, f := range cat.Files() {
		if int64(f.Size) != fileBytes {
			return nil, fmt.Errorf("bench: catalog file %v is %d bytes, want %d", f.ID, int64(f.Size), fileBytes)
		}
	}
	return cat, nil
}

// startCluster stands the deployment up. On error everything already
// started is torn down.
func startCluster(spec clusterSpec) (*liveCluster, error) {
	cat, err := fixedCatalog(spec.files, spec.fileBytes)
	if err != nil {
		return nil, err
	}
	mmSrv, err := live.NewMMServer(mm.New(), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lc := &liveCluster{
		spec:  spec,
		cat:   cat,
		sched: live.NewWallScheduler(1),
		mmSrv: mmSrv,
	}
	master := rng.New(31)
	for i := 0; i < spec.rms; i++ {
		if err := lc.addRM(ids.RMID(i+1), master); err != nil {
			lc.close()
			return nil, err
		}
	}
	return lc, nil
}

func (lc *liveCluster) addRM(id ids.RMID, master *rng.Source) error {
	spec := lc.spec
	disk, err := vdisk.New(spec.storage, blkio.NewController(), fmt.Sprintf("vm%d", id), spec.capacity, spec.capacity)
	if err != nil {
		return err
	}
	files := make(map[ids.FileID]rm.FileMeta, spec.files)
	fileIDs := make([]ids.FileID, 0, spec.files)
	for _, f := range lc.cat.Files() {
		files[f.ID] = rm.FileMeta{Bitrate: f.Bitrate, Size: f.Size, DurationSec: f.DurationSec}
		fileIDs = append(fileIDs, f.ID)
		if err := disk.Provision(live.FileName(f.ID), f.Size); err != nil {
			return err
		}
	}
	mapper, err := live.DialMM(lc.mmSrv.Addr())
	if err != nil {
		return err
	}
	lc.closers = append(lc.closers, func() { mapper.Close() })
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: id, Capacity: spec.capacity, StorageBytes: spec.storage},
		Scheduler:   lc.sched,
		Mapper:      mapper,
		History:     history.DefaultConfig(),
		Replication: replication.DefaultConfig(replication.Static()),
		Rand:        master.Split(id.String()),
		Files:       files,
	})
	if err != nil {
		return err
	}
	srv, err := live.NewRMServer(node, disk, "127.0.0.1:0")
	if err != nil {
		return err
	}
	lc.rmSrvs = append(lc.rmSrvs, srv)
	lc.disks = append(lc.disks, disk)
	info := node.Info()
	info.Addr = srv.Addr()
	if err := mapper.RegisterRM(info, fileIDs); err != nil {
		return err
	}
	peers := live.NewDirectory(mapper)
	lc.closers = append(lc.closers, peers.Close)
	node.SetDirectory(peers)
	return nil
}

// endpoint is one client's view of the cluster: its own MM connection
// and its own directory (connection pools), like a separate client
// process would have.
type endpoint struct {
	mapper *live.MMClient
	dir    *live.Directory
}

func (lc *liveCluster) dial() (endpoint, error) {
	mapper, err := live.DialMM(lc.mmSrv.Addr())
	if err != nil {
		return endpoint{}, err
	}
	dir := live.NewDirectory(mapper)
	lc.closers = append(lc.closers, dir.Close, func() { mapper.Close() })
	return endpoint{mapper: mapper, dir: dir}, nil
}

// newClient builds a DFSC over the given mapper and directory (the plain
// endpoint's, or span-recording decorators around them). Soft admission
// with policy (1,1,1), concurrent fan-out and no metadata lease: every
// open pays the lookup and one CFP per holder.
func (lc *liveCluster) newClient(id ids.DFSCID, mapper ecnp.Mapper, dir ecnp.Directory, seed uint64) (*dfsc.Client, error) {
	return dfsc.New(dfsc.Options{
		ID:        id,
		Mapper:    mapper,
		Directory: dir,
		Scheduler: lc.sched,
		Catalog:   lc.cat,
		Policy:    selection.Full,
		Scenario:  qos.Soft,
		Rand:      rng.New(seed).Split(fmt.Sprintf("dfsc/%d", id)),
		Fanout:    dfsc.Fanout{Concurrent: true},
	})
}

// leaks reports every RM still holding a reservation or bandwidth: after
// a workload all of it must have been returned.
func (lc *liveCluster) leaks() []string {
	var out []string
	for _, srv := range lc.rmSrvs {
		node := srv.Node()
		if n, bw := node.ActiveReservations(), node.Allocated(); n != 0 || bw != 0 {
			out = append(out, fmt.Sprintf("%v still holds %d reservation(s), %v allocated", node.Info().ID, n, bw))
		}
	}
	return out
}

func (lc *liveCluster) close() {
	for _, c := range lc.closers {
		c()
	}
	for _, s := range lc.rmSrvs {
		s.Close()
	}
	lc.mmSrv.Close()
	lc.sched.Stop()
}
