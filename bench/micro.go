package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/ledger"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/tenant"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// The per-layer micro-benchmarks time calls into each layer's public
// functions: fixed iteration counts, one goroutine, the median of a few
// batches. Module names are the layer names. They do not depend on the
// workload, so a traced run of any workload reports all of them.

const chunkBytes = 64 << 10

// micro runs the layer timings; quick (smoke runs) cuts every iteration
// count fifty-fold and times one batch instead of five.
type micro struct {
	quick bool
	m     map[string]metric
	sink  uint64 // keeps results alive so the compiler cannot drop a loop
}

// timeOp runs fn n times per batch and returns the median batch's mean
// ns per call, plus the process's allocations per call over all batches
// (for calls that cross a socket this includes the serving side: client
// and server share the process).
func (mi *micro) timeOp(n int, fn func()) (nsPerOp, allocsPerOp float64) {
	microBatches := 5
	if mi.quick {
		microBatches, n = 1, max(1, n/50)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	batches := make([]float64, microBatches)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return median(batches), float64(ms.Mallocs-mallocs) / float64(n*microBatches)
}

// mbPerS converts ns per call moving bytes per call into MB/s.
func mbPerS(nsPerOp float64, bytes int) float64 {
	return float64(bytes) / mb / (nsPerOp / 1e9)
}

// discardRW swallows writes (encode timing).
type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read([]byte) (int, error)    { return 0, io.EOF }

// loopRW replays one encoded frame forever (decode timing).
type loopRW struct {
	frame []byte
	off   int
}

func (l *loopRW) Read(p []byte) (int, error) {
	if l.off == len(l.frame) {
		l.off = 0
	}
	n := copy(p, l.frame[l.off:])
	l.off += n
	return n, nil
}

func (l *loopRW) Write(p []byte) (int, error) { return len(p), nil }

func runMicro(quick bool) (map[string]metric, error) {
	mi := &micro{quick: quick, m: make(map[string]metric)}
	for _, part := range []func() error{mi.wire, mi.mm, mi.admission, mi.disk, mi.live, mi.sim} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	return mi.m, nil
}

func (mi *micro) wire() error {
	m := mi.m
	data := make([]byte, chunkBytes)
	for i := range data {
		data[i] = byte(i * 131)
	}

	enc := wire.NewConn(discardRW{})
	var werr error
	encNs, encAllocs := mi.timeOp(20000, func() {
		if err := enc.WriteChunk(0, data); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	var frame bytes.Buffer
	if err := wire.NewConn(&frame).WriteChunk(0, data); err != nil {
		return err
	}
	dec := wire.NewConn(&loopRW{frame: frame.Bytes()})
	decNs, decAllocs := mi.timeOp(20000, func() {
		msg, err := dec.Read()
		if err != nil {
			werr = err
			return
		}
		msg.Release()
	})
	if werr != nil {
		return werr
	}
	m["wire.chunk_encode_ns"] = metric{encNs, "ns"}
	m["wire.chunk_decode_ns"] = metric{decNs, "ns"}
	m["wire.chunk_allocs_per_op"] = metric{encAllocs + decAllocs, "count"}

	sum := wire.ChecksumBasis
	sumNs, _ := mi.timeOp(2000, func() { sum = wire.ChecksumUpdate(sum, data) })
	mi.sink += sum
	m["wire.checksum_mb_per_s"] = metric{mbPerS(sumNs, chunkBytes), "MB/s"}

	// The control plane's unit: a gob request and its gob reply through
	// wire.Conn, over an in-memory pipe. One op is a CFP→Bid exchange or
	// an OpenRequest→OpenResult exchange, alternating.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		sw := wire.NewConn(server)
		for {
			msg, err := sw.Read()
			if err != nil {
				return
			}
			if msg.Kind == wire.KindCFP {
				err = sw.Write(wire.KindBid, selection.Bid{RM: 1, Rem: units.Mbps(10), Req: units.Mbps(2), HasReplica: true})
			} else {
				err = sw.Write(wire.KindOpenResult, ecnp.OpenResult{OK: true})
			}
			if err != nil {
				return
			}
		}
	}()
	cw := wire.NewConn(client)
	cfp := ecnp.CFP{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 64}
	open := ecnp.OpenRequest{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 64}
	turn := 0
	ctlNs, ctlAllocs := mi.timeOp(2000, func() {
		var err error
		if turn++; turn%2 == 0 {
			_, err = cw.Call(wire.KindCFP, cfp)
		} else {
			_, err = cw.Call(wire.KindOpen, open)
		}
		if err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	m["wire.ctl_roundtrip_ns"] = metric{ctlNs, "ns"}
	m["wire.ctl_allocs_per_op"] = metric{ctlAllocs, "count"}
	return nil
}

// registerRMs registers n RMs that all hold files 0..files-1.
func registerRMs(mapper ecnp.Mapper, n, files int) error {
	held := make([]ids.FileID, files)
	for i := range held {
		held[i] = ids.FileID(i)
	}
	for i := 1; i <= n; i++ {
		info := ecnp.RMInfo{ID: ids.RMID(i), Capacity: units.Mbps(1000), StorageBytes: units.GB}
		if err := mapper.RegisterRM(info, held); err != nil {
			return err
		}
	}
	return nil
}

func (mi *micro) mm() error {
	m := mi.m
	single := mm.New()
	if err := registerRMs(single, 16, 64); err != nil {
		return err
	}
	file := 0
	ns, _ := mi.timeOp(50000, func() {
		file = (file + 1) % 64
		mi.sink += uint64(len(single.Lookup(ids.FileID(file))))
	})
	m["mm.lookup_ns"] = metric{ns, "ns"}

	sharded := mm.NewShardedReplicated(4, 2)
	if err := registerRMs(sharded, 16, 64); err != nil {
		return err
	}
	ns, _ = mi.timeOp(50000, func() {
		file = (file + 1) % 64
		mi.sink += uint64(len(sharded.Lookup(ids.FileID(file))))
	})
	m["mm.sharded_lookup_ns"] = metric{ns, "ns"}

	// The two calls a refused dynamic replication makes, at the
	// flash-crowd scenario's scale: 256 RMs, a file at its replica cap.
	big := mm.New()
	if err := registerRMs(big, 256, 0); err != nil {
		return err
	}
	for i := 1; i <= 8; i++ {
		if err := big.AddReplica(0, ids.RMID(i)); err != nil {
			return err
		}
	}
	ns, _ = mi.timeOp(5000, func() { mi.sink += uint64(len(big.RMsWithout(0))) })
	m["mm.rms_without_ns"] = metric{ns, "ns"}
	admitted := 0
	ns, _ = mi.timeOp(20000, func() {
		if big.BeginReplication(0, 100, 8) == nil {
			admitted++
		}
	})
	if admitted != 0 {
		return fmt.Errorf("mm: %d BeginReplication call(s) past the replica cap admitted", admitted)
	}
	m["mm.begin_replication_refused_ns"] = metric{ns, "ns"}
	return nil
}

func (mi *micro) admission() error {
	m := mi.m
	mapper := mm.New()
	files := make(map[ids.FileID]rm.FileMeta)
	for i := 0; i < 64; i++ {
		files[ids.FileID(i)] = rm.FileMeta{Bitrate: units.Mbps(2), Size: 16 * units.MB, DurationSec: 64}
	}
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(1000), StorageBytes: 16 * units.GB},
		Scheduler:   ecnp.SimScheduler{S: simtime.NewScheduler()},
		Mapper:      mapper,
		History:     history.DefaultConfig(),
		Replication: replication.DefaultConfig(replication.Static()),
		Rand:        rng.New(1),
		Files:       files,
	})
	if err != nil {
		return err
	}
	if err := node.Register(); err != nil {
		return err
	}
	req := ids.RequestID(0)
	cfpNs, cfpAllocs := mi.timeOp(50000, func() {
		req++
		bid := node.HandleCFP(ecnp.CFP{Request: req, File: ids.FileID(req % 64), Bitrate: units.Mbps(2), DurationSec: 64})
		mi.sink += uint64(bid.RM)
	})
	m["rm.handle_cfp_ns"] = metric{cfpNs, "ns"}
	m["rm.handle_cfp_allocs_per_op"] = metric{cfpAllocs, "count"}
	refusals := 0
	ns, _ := mi.timeOp(50000, func() {
		req++
		if !node.Open(ecnp.OpenRequest{Request: req, File: ids.FileID(req % 64), Bitrate: units.Mbps(2), DurationSec: 64}).OK {
			refusals++
		}
		node.Close(req)
	})
	if refusals != 0 || node.ActiveReservations() != 0 {
		return fmt.Errorf("rm: %d soft open(s) refused, %d reservation(s) left", refusals, node.ActiveReservations())
	}
	m["rm.open_close_ns"] = metric{ns, "ns"}

	l := ledger.New(units.Mbps(1000), 0)
	at := simtime.Time(0)
	ns, _ = mi.timeOp(200000, func() {
		at++
		l.Allocate(at, units.Mbps(2))
		l.Release(at+0.5, units.Mbps(2))
	})
	m["ledger.alloc_release_ns"] = metric{ns, "ns"}

	tl := tenant.NewLedger()
	tl.Set(1, tenant.Quota{Bandwidth: units.Mbps(100), Bytes: tenant.NoLimit, Weight: 1})
	over := 0
	ns, _ = mi.timeOp(200000, func() {
		if tl.ReserveBandwidth(1, units.Mbps(2)) != nil {
			over++
		}
		tl.ReleaseBandwidth(1, units.Mbps(2))
	})
	if over != 0 {
		return fmt.Errorf("tenant: %d reservation(s) within quota refused", over)
	}
	m["tenant.reserve_release_ns"] = metric{ns, "ns"}

	tq := history.MustNew(history.DefaultConfig())
	ns, _ = mi.timeOp(200000, func() {
		at++
		tq.Record(at, 16*units.MB)
	})
	m["history.record_ns"] = metric{ns, "ns"}

	bids := make([]selection.Bid, 16)
	for i := range bids {
		bids[i] = selection.Bid{
			RM: ids.RMID(i + 1), Rem: units.Mbps(float64(100 + 7*i%13)), Trend: float64(1000 * (i % 5)),
			OccBias: 0.4, Req: units.Mbps(2), HasReplica: true,
		}
	}
	ns, _ = mi.timeOp(50000, func() { mi.sink += uint64(selection.Rank(selection.Full, bids)[0]) })
	m["selection.rank16_ns"] = metric{ns, "ns"}
	return nil
}

func (mi *micro) disk() error {
	m := mi.m
	ctx := context.Background()
	ctrl := blkio.NewController()
	free, err := ctrl.SetGroup("free", unthrottled, unthrottled)
	if err != nil {
		return err
	}
	var werr error
	ns, _ := mi.timeOp(200000, func() {
		if err := ctrl.Wait(ctx, free, blkio.Read, chunkBytes); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	m["blkio.wait_uncontended_ns"] = metric{ns, "ns"}

	// Throttle accuracy: drain the bucket's start-up burst, then see how
	// close a second of greedy 64 KiB reads comes to the configured rate.
	rate := units.Mbps(256)
	slow, err := ctrl.SetGroup("slow", rate, rate)
	if err != nil {
		return err
	}
	for {
		t0 := time.Now()
		if err := ctrl.Wait(ctx, slow, blkio.Read, chunkBytes); err != nil {
			return err
		}
		if time.Since(t0) > time.Millisecond {
			break
		}
	}
	window := time.Second
	if mi.quick {
		window = 50 * time.Millisecond
	}
	var moved int64
	t0 := time.Now()
	for time.Since(t0) < window {
		if err := ctrl.Wait(ctx, slow, blkio.Read, chunkBytes); err != nil {
			return err
		}
		moved += chunkBytes
	}
	achieved := float64(moved) / time.Since(t0).Seconds()
	rateErr := achieved/float64(rate) - 1
	if rateErr < 0 {
		rateErr = -rateErr
	}
	m["blkio.throttled_rate_error"] = metric{rateErr, "ratio"}

	const fileBytes = 16 << 20
	disk, err := vdisk.New(units.GB, blkio.NewController(), "vm", unthrottled, unthrottled)
	if err != nil {
		return err
	}
	if err := disk.Provision("f", fileBytes); err != nil {
		return err
	}
	buf := make([]byte, chunkBytes)
	off := int64(0)
	ns, _ = mi.timeOp(2000, func() {
		n, err := disk.ReadAtGroup(ctx, disk.DefaultGroup(), "f", buf, off)
		if err != nil && err != io.EOF {
			werr = err
		}
		off = (off + int64(n)) % fileBytes
	})
	if werr != nil {
		return werr
	}
	m["vdisk.read_mb_per_s"] = metric{mbPerS(ns, chunkBytes), "MB/s"}
	// Provisioning again drops the cached sum, so every call folds the
	// whole file.
	ns, _ = mi.timeOp(2, func() {
		if err := disk.Provision("f", fileBytes); err != nil {
			werr = err
		}
		sum, err := disk.Checksum("f")
		if err != nil {
			werr = err
		}
		mi.sink += sum
	})
	if werr != nil {
		return werr
	}
	m["vdisk.checksum_mb_per_s"] = metric{mbPerS(ns, fileBytes), "MB/s"}
	return nil
}

// microLive times single calls against a live one-RM cluster, and the
// bare loopback socket as the baseline no layer can beat.
func (mi *micro) live() error {
	m := mi.m
	ctx := context.Background()

	// Bare net.Conn over loopback, 64 KiB writes against a draining
	// reader: the baseline, not a layer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// The drain ends with the writer's close; its error is the signal.
		_, _ = io.Copy(io.Discard, c)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	data := make([]byte, chunkBytes)
	var werr error
	ns, _ := mi.timeOp(2000, func() {
		if _, err := conn.Write(data); err != nil {
			werr = err
		}
	})
	conn.Close()
	ln.Close()
	<-drained
	if werr != nil {
		return werr
	}
	m["loopback.mb_per_s"] = metric{mbPerS(ns, chunkBytes), "MB/s"}

	lc, err := startCluster(clusterSpec{rms: 1, capacity: unthrottled, files: 1, fileBytes: streamFileBytes, storage: units.GB})
	if err != nil {
		return err
	}
	defer lc.close()
	ep, err := lc.dial()
	if err != nil {
		return err
	}
	p, ok := ep.dir.Provider(1)
	if !ok {
		return fmt.Errorf("micro: RM 1 unreachable")
	}

	req := ids.RequestID(1 << 30)
	ns, _ = mi.timeOp(500, func() {
		req++
		mi.sink += uint64(p.HandleCFP(ecnp.CFP{Request: req, File: 0, Bitrate: units.Mbps(2), DurationSec: 64}).RM)
	})
	m["live.cfp_rtt_us"] = metric{ns / 1e3, "us"}
	refusals := 0
	ns, _ = mi.timeOp(500, func() {
		req++
		if !p.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: units.Mbps(2), DurationSec: 64}).OK {
			refusals++
		}
		p.Close(req)
	})
	if refusals != 0 {
		return fmt.Errorf("micro: %d soft open(s) refused over TCP", refusals)
	}
	m["live.open_close_rtt_us"] = metric{ns / 1e3, "us"}

	// transport.Client.Call on its own: a keepalive of a held reservation.
	held := req + 1
	if res := p.Open(ecnp.OpenRequest{Request: held, File: 0, Bitrate: units.Mbps(2), DurationSec: 64}); !res.OK {
		return fmt.Errorf("micro: open refused: %s", res.Reason)
	}
	tc, err := transport.Dial(lc.rmSrvs[0].Addr(), transport.DefaultConfig())
	if err != nil {
		return err
	}
	ns, allocs := mi.timeOp(1000, func() {
		if _, err := tc.Call(ctx, wire.KindKeepalive, wire.Keepalive{Request: held}); err != nil {
			werr = err
		}
	})
	tc.Close()
	p.Close(held)
	if werr != nil {
		return werr
	}
	m["transport.call_rtt_us"] = metric{ns / 1e3, "us"}
	m["transport.call_allocs_per_op"] = metric{allocs, "count"}

	// The MM lookup over TCP answers 16 holders, as in open_storm.
	mgr := mm.New()
	if err := registerRMs(mgr, 16, 64); err != nil {
		return err
	}
	mmSrv, err := live.NewMMServer(mgr, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer mmSrv.Close()
	mapper, err := live.DialMM(mmSrv.Addr())
	if err != nil {
		return err
	}
	defer mapper.Close()
	file := 0
	short := 0
	ns, _ = mi.timeOp(1000, func() {
		file = (file + 1) % 64
		if len(mapper.Lookup(ids.FileID(file))) != 16 {
			short++
		}
	})
	if short != 0 {
		return fmt.Errorf("micro: %d lookup(s) over TCP did not answer 16 holders", short)
	}
	m["live.mm_lookup_rtt_us"] = metric{ns / 1e3, "us"}

	// The data plane's two read calls, one RM, throttle out of the way.
	const rangeBytes = 1 << 20
	off := int64(0)
	ns, _ = mi.timeOp(32, func() {
		sum := wire.ChecksumBasis
		n, err := ep.dir.StreamRange(ctx, 1, 0, 0, off, rangeBytes, io.Discard, &sum)
		if err != nil || n != rangeBytes {
			werr = fmt.Errorf("micro: StreamRange delivered %d bytes: %v", n, err)
		}
		off = (off + rangeBytes) % streamFileBytes
	})
	if werr != nil {
		return werr
	}
	m["live.stream_range_mb_per_s"] = metric{mbPerS(ns, rangeBytes), "MB/s"}
	ns, _ = mi.timeOp(1, func() {
		n, err := ep.dir.StreamAt(ctx, 1, 0, 0, 0, io.Discard, nil)
		if err != nil || n != streamFileBytes {
			werr = fmt.Errorf("micro: StreamAt delivered %d bytes: %v", n, err)
		}
	})
	if werr != nil {
		return werr
	}
	m["live.stream_at_nosum_mb_per_s"] = metric{mbPerS(ns, streamFileBytes), "MB/s"}
	return nil
}

// microSim times the discrete-event core: schedule-and-fire of events
// that each schedule their successor, four chains interleaved.
func (mi *micro) sim() error {
	m := mi.m
	const events = 200000
	ns, _ := mi.timeOp(1, func() {
		s := simtime.NewScheduler()
		left := events
		var tick func(simtime.Time)
		tick = func(simtime.Time) {
			if left--; left > 0 {
				s.After(1, tick)
			}
		}
		for i := 0; i < 4; i++ {
			s.After(simtime.Duration(i)/4, tick)
		}
		s.Run()
		mi.sink += s.Fired()
	})
	m["simtime.events_per_s"] = metric{events / (ns / 1e9), "1/s"}
	return nil
}
