package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

const mb = 1e6 // throughput is reported in decimal MB/s

// ---- open_storm ----------------------------------------------------------

// openStorm is the flash-crowd control-plane load: 2 closed-loop clients
// opening and releasing Zipf-chosen files that all 16 RMs hold, so every
// open is 1 lookup + 16 CFPs + 1 Open + 1 Close and no data byte moves.
type openStorm struct {
	lc      *liveCluster
	clients [2]stormClient
}

// stormClient is one closed-loop client: a plain DFSC and a decorated
// one over the same endpoint, and the seeded file sequence.
type stormClient struct {
	plain, traced *dfsc.Client
	tracer        *opTracer
	files         *rng.Source
}

func (w *openStorm) build(seed uint64) error {
	lc, err := startCluster(clusterSpec{
		rms: 16, capacity: units.Mbps(1000), files: 64, fileBytes: 8 << 20, storage: units.GB,
	})
	if err != nil {
		return err
	}
	w.lc = lc
	for i := range w.clients {
		ep, err := lc.dial()
		if err != nil {
			return err
		}
		cl := &w.clients[i]
		cl.tracer = &opTracer{}
		cl.files = rng.New(seed).Split(fmt.Sprintf("files/%d", i))
		if cl.plain, err = lc.newClient(ids.DFSCID(i+1), ep.mapper, ep.dir, seed); err != nil {
			return err
		}
		cl.traced, err = lc.newClient(ids.DFSCID(i+1), tracedMapper{ep.mapper, cl.tracer}, newTracedDirectory(ep.dir, cl.tracer), seed)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *openStorm) first() error {
	out, release := w.clients[0].plain.AccessHeld(0)
	release()
	if !out.OK {
		return fmt.Errorf("open refused: %s", out.Reason)
	}
	return nil
}

func (w *openStorm) warm(d time.Duration) error {
	_, err := w.measure(d, nil)
	return err
}

func (w *openStorm) measure(d time.Duration, rec *recorder) (*pass, error) {
	parts := make([]pass, len(w.clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range w.clients {
		wg.Add(1)
		go func(cl *stormClient, p *pass) {
			defer wg.Done()
			c := cl.plain
			if rec != nil {
				c = cl.traced
			}
			cl.tracer.rec = rec
			for time.Now().Before(deadline) {
				file := w.lc.cat.SamplePopular(cl.files)
				op, opStart := cl.tracer.begin()
				t0 := time.Now()
				out, release := c.AccessHeld(file)
				lat := time.Since(t0)
				release()
				cl.tracer.end(op, opStart, out.Request)
				p.attempted++
				if !out.OK {
					p.fail("open of %v refused: %s", file, out.Reason)
					continue
				}
				p.latencies = append(p.latencies, float64(lat)/1e6)
			}
		}(&w.clients[i], &parts[i])
	}
	wg.Wait()
	out := mergePasses(parts, time.Since(start))
	out.work = float64(out.attempted - out.failed)
	out.workPerS = out.work / out.wall.Seconds()

	var st dfsc.Stats
	for i := range w.clients {
		c := w.clients[i].plain
		if rec != nil {
			c = w.clients[i].traced
		}
		s := c.Stats()
		st.Requests += s.Requests
		st.Messages += s.Messages
		st.Hedges += s.Hedges
		st.Failovers += s.Failovers
	}
	out.extra = clientCounters(st)
	return out, nil
}

// clientCounters reports what the DFSC counted over its life (warm-up
// included): control messages per admitted request, a ratio of two
// counters that grow together, and the hedges and failovers a healthy
// cluster must not have needed.
func clientCounters(st dfsc.Stats) map[string]float64 {
	extra := map[string]float64{"dfsc.hedges": float64(st.Hedges), "dfsc.failovers": float64(st.Failovers)}
	if st.Requests > 0 {
		extra["dfsc.msgs_per_request"] = float64(st.Messages) / float64(st.Requests)
	}
	return extra
}

func (w *openStorm) verify() []string { return w.lc.leaks() }

func (w *openStorm) close() {
	if w.lc != nil {
		w.lc.close()
		w.lc = nil
	}
}

// mergePasses concatenates per-goroutine results.
func mergePasses(parts []pass, wall time.Duration) *pass {
	out := &pass{wall: wall}
	for i := range parts {
		out.attempted += parts[i].attempted
		out.failed += parts[i].failed
		out.latencies = append(out.latencies, parts[i].latencies...)
		out.problems = append(out.problems, parts[i].problems...)
	}
	return out
}

// ---- stream_seq / stripe_k4 ----------------------------------------------

// streamFileBytes is the size of the files the read workloads stream;
// smoke tests use smokeFileBytes.
const (
	streamFileBytes = 64 << 20
	smokeFileBytes  = 4 << 20
)

// streamRead reads whole 64 MiB files through dfsc.ReadStriped with the
// throttle out of the way: width 1 on one RM is the sequential reader,
// width 4 on four RMs the segment scheduler. Every read is checked for
// size and whole-file checksum.
type streamRead struct {
	rms, width int
	fileBytes  int64

	lc            *liveCluster
	ep            endpoint
	plain, traced *dfsc.Client
	tracedDir     *tracedDirectory
	tracer        *opTracer
	files         *rng.Source
	sums          map[ids.FileID]uint64
}

func (w *streamRead) build(seed uint64) error {
	lc, err := startCluster(clusterSpec{
		rms: w.rms, capacity: unthrottled, files: 4, fileBytes: w.fileBytes, storage: units.GB,
	})
	if err != nil {
		return err
	}
	w.lc = lc
	if w.ep, err = lc.dial(); err != nil {
		return err
	}
	w.tracer = &opTracer{}
	w.tracedDir = newTracedDirectory(w.ep.dir, w.tracer)
	w.files = rng.New(seed).Split("files")
	if w.plain, err = lc.newClient(1, w.ep.mapper, w.ep.dir, seed); err != nil {
		return err
	}
	w.traced, err = lc.newClient(1, tracedMapper{w.ep.mapper, w.tracer}, w.tracedDir, seed)
	return err
}

// first reads one file cold. The checksums reads are verified against do
// not exist yet (computing them is the benchmark's work, not the
// system's), so this read is checked for size only.
func (w *streamRead) first() error {
	w.sums = nil
	p := &pass{}
	w.readOne(0, nil, p)
	if p.failed > 0 {
		return fmt.Errorf("%s", p.problems[0])
	}
	return nil
}

// warm computes the checksums reads are verified against (from the first
// RM's disk: every RM serves the same synthesized content) and reads one
// file through each client.
func (w *streamRead) warm(time.Duration) error {
	w.sums = make(map[ids.FileID]uint64)
	for _, f := range w.lc.cat.Files() {
		sum, err := w.lc.disks[0].Checksum(live.FileName(f.ID))
		if err != nil {
			return err
		}
		w.sums[f.ID] = sum
	}
	for _, rec := range []*recorder{nil, newRecorder()} {
		p := &pass{}
		w.readOne(0, rec, p)
		if p.failed > 0 {
			return fmt.Errorf("warm read: %s", p.problems[0])
		}
	}
	return nil
}

// firstByteWriter discards what it is given, counting bytes and noting
// when the first one arrived.
type firstByteWriter struct {
	n     int64
	first time.Time
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.n == 0 && len(p) > 0 {
		w.first = time.Now()
	}
	w.n += int64(len(p))
	return len(p), nil
}

// readOne performs and checks one whole-file read, returning its MB/s.
func (w *streamRead) readOne(file ids.FileID, rec *recorder, p *pass) float64 {
	c, streamer := w.plain, dfsc.Streamer(w.ep.dir)
	if rec != nil {
		c, streamer = w.traced, w.tracedDir
	}
	w.tracer.rec = rec
	op, opStart := w.tracer.begin()
	sink := &firstByteWriter{}
	t0 := time.Now()
	res, err := c.ReadStriped(streamer, file, sink, dfsc.StripeConfig{Width: w.width, SegmentBytes: 1 << 20})
	elapsed := time.Since(t0)
	w.tracer.end(op, opStart, 0)
	p.attempted++
	switch {
	case err != nil:
		p.fail("read of %v: %v", file, err)
	case res.Bytes != w.fileBytes || sink.n != w.fileBytes:
		p.fail("read of %v delivered %d bytes (writer saw %d), want %d", file, res.Bytes, sink.n, w.fileBytes)
	case w.sums != nil && res.Checksum != w.sums[file]:
		p.fail("read of %v: checksum %x, disk has %x", file, res.Checksum, w.sums[file])
	case res.Failovers != 0 || res.Hedges != 0:
		p.fail("read of %v: %d failover(s), %d hedge(s) on a healthy cluster", file, res.Failovers, res.Hedges)
	default:
		p.latencies = append(p.latencies, float64(sink.first.Sub(t0))/1e6)
		p.work += float64(w.fileBytes) / mb
		return float64(w.fileBytes) / mb / elapsed.Seconds()
	}
	return 0
}

func (w *streamRead) measure(d time.Duration, rec *recorder) (*pass, error) {
	p := &pass{}
	var rates []float64
	start := time.Now()
	for time.Since(start) < d {
		file := w.lc.cat.SamplePopular(w.files)
		if r := w.readOne(file, rec, p); r > 0 {
			rates = append(rates, r)
		}
	}
	p.wall = time.Since(start)
	// The median over whole-file reads, not bytes over the window: one
	// read stalled by a neighbour on the box moves the median little.
	p.workPerS = median(rates)
	c := w.plain
	if rec != nil {
		c = w.traced
	}
	p.extra = clientCounters(c.Stats())
	return p, nil
}

func (w *streamRead) verify() []string { return w.lc.leaks() }

func (w *streamRead) close() {
	if w.lc != nil {
		w.lc.close()
		w.lc = nil
	}
}

// ---- qos_contend ---------------------------------------------------------

const (
	qosFileBytes  = 2 << 20
	smokeQosBytes = 256 << 10
	qosAssured    = units.BytesPerSec(12e6) // per reservation
)

var qosDisk = units.Mbps(256) // 32 MB/s

// qosContend puts the throttle in the way: one 32 MB/s disk with stream
// QoS on, two reservations assured 12 MB/s each. Phase A (60 % of the
// window) both read greedily; phase B (40 %) the second idles and the
// first may borrow the whole disk. It measures the paper's promise:
// floors held, spare capacity used, and no more than the disk delivered.
type qosContend struct {
	// smoke shortens the burst drain and records the floor and the
	// utilization without judging them: a window of a fraction of a
	// second is a handful of fetches.
	smoke     bool
	fileBytes int64

	lc        *liveCluster
	ep        endpoint
	tracer    *opTracer
	tracedDir *tracedDirectory
	sum       uint64
	reqs      [2]ids.RequestID
}

func (w *qosContend) build(uint64) error {
	lc, err := startCluster(clusterSpec{
		rms: 1, capacity: qosDisk, files: 1, fileBytes: w.fileBytes, storage: units.GB,
	})
	if err != nil {
		return err
	}
	w.lc = lc
	if err := lc.rmSrvs[0].EnableStreamQoS(1.0); err != nil {
		return err
	}
	if w.ep, err = lc.dial(); err != nil {
		return err
	}
	w.tracer = &opTracer{}
	w.tracedDir = newTracedDirectory(w.ep.dir, w.tracer)
	p, ok := w.ep.dir.Provider(1)
	if !ok {
		return fmt.Errorf("qos_contend: RM 1 unreachable")
	}
	w.reqs = [2]ids.RequestID{9001, 9002}
	for _, req := range w.reqs {
		res := p.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: qosAssured, DurationSec: 3600})
		if !res.OK {
			return fmt.Errorf("qos_contend: open %v refused: %s", req, res.Reason)
		}
	}
	return nil
}

func (w *qosContend) first() error {
	n, err := w.ep.dir.StreamAt(context.Background(), 1, 0, w.reqs[0], 0, io.Discard, nil)
	if err != nil || n != w.fileBytes {
		return fmt.Errorf("fetch delivered %d bytes: %v", n, err)
	}
	return nil
}

// warm drains the token buckets' start-up burst (about a second of
// tokens per bucket): both readers run until the disk's aggregate rate
// over a slice has fallen to the configured rate.
func (w *qosContend) warm(time.Duration) error {
	var err error
	if w.sum, err = w.lc.disks[0].Checksum(live.FileName(0)); err != nil {
		return err
	}
	slice := 250 * time.Millisecond
	if w.smoke {
		slice = 50 * time.Millisecond
	}
	for i := 0; i < 40; i++ {
		p, err := w.contend(slice, 0, nil)
		if err != nil {
			return err
		}
		if p.failed > 0 {
			return fmt.Errorf("warm fetch: %s", p.problems[0])
		}
		if p.workPerS*mb <= 1.05*float64(qosDisk) {
			return nil
		}
	}
	return fmt.Errorf("qos_contend: token burst did not drain in %v", 40*slice)
}

func (w *qosContend) measure(d time.Duration, rec *recorder) (*pass, error) {
	phaseA := d * 6 / 10
	return w.contend(phaseA, d-phaseA, rec)
}

// contend runs phase A (both readers) then phase B (reader 0 alone).
// Readers fetch the 2 MiB file over and over with Directory.StreamAt
// under their reservation's request id; byte counters are sampled at the
// phase boundaries, so a fetch in flight there is split between phases.
func (w *qosContend) contend(phaseA, phaseB time.Duration, rec *recorder) (*pass, error) {
	w.tracer.rec = rec
	var bytes [2]atomic.Int64
	var inA atomic.Bool
	inA.Store(true)
	stop := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	parts := make([]pass, 2)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &parts[i]
			sink := &countingWriter{n: &bytes[i]}
			for {
				select {
				case <-stop[i]:
					return
				default:
				}
				// Only reader 0 is traced: the tracer follows one
				// closed loop at a time.
				traced := rec != nil && i == 0
				s := dfsc.Streamer(w.ep.dir)
				var op uint32
				var opStart int64
				if traced {
					s = w.tracedDir
					op, opStart = w.tracer.begin()
				}
				sum := wire.ChecksumBasis
				t0 := time.Now()
				n, err := s.StreamAt(context.Background(), 1, 0, w.reqs[i], 0, sink, &sum)
				lat := time.Since(t0)
				if traced {
					w.tracer.end(op, opStart, w.reqs[i])
				}
				p.attempted++
				switch {
				case err != nil:
					p.fail("fetch under %v: %v", w.reqs[i], err)
					return
				case n != w.fileBytes || sum != w.sum:
					p.fail("fetch under %v: %d bytes checksum %x, want %d bytes %x", w.reqs[i], n, sum, w.fileBytes, w.sum)
				case inA.Load():
					p.latencies = append(p.latencies, float64(lat)/1e6)
				}
			}
		}(i)
	}
	start := time.Now()
	time.Sleep(phaseA)
	aDur := time.Since(start)
	a0, a1 := bytes[0].Load(), bytes[1].Load()
	inA.Store(false)
	close(stop[1])
	time.Sleep(phaseB)
	close(stop[0])
	total := bytes[0].Load() + bytes[1].Load()
	wall := time.Since(start)
	wg.Wait()

	out := mergePasses(parts, wall)
	out.work = float64(total) / mb
	out.workPerS = out.work / wall.Seconds()
	floor := min(float64(a0), float64(a1)) / aDur.Seconds() / float64(qosAssured)
	util := float64(total) / (float64(qosDisk) * wall.Seconds())
	out.extra = map[string]float64{"qos.floor_min_ratio": floor, "qos.disk_utilization": util}
	if phaseB > 0 && !w.smoke {
		// The warm-up slices run before the burst has drained and judge
		// neither number.
		if floor < 0.95 {
			out.fail("assured floor dented: slower reservation ran at %.3f of its assured rate in phase A", floor)
		}
		if util > 1.05 {
			out.fail("throttle leaked: %.3f of the disk's configured rate delivered", util)
		}
	}
	return out, nil
}

// countingWriter discards what it is given and adds its length to n.
type countingWriter struct{ n *atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

func (w *qosContend) verify() []string {
	if p, ok := w.ep.dir.Provider(1); ok {
		for _, req := range w.reqs {
			p.Close(req)
		}
	}
	return w.lc.leaks()
}

func (w *qosContend) close() {
	if w.lc != nil {
		w.lc.close()
		w.lc = nil
	}
}

// ---- ingest_write --------------------------------------------------------

const (
	ingestObjectBytes = 32 << 20
	smokeObjectBytes  = 2 << 20
	ingestObjects     = 4
	ingestBlock       = 64 << 10
)

// ingestWrite uploads 32 MiB objects to one unthrottled RM with
// RMClient.WriteFile, cycling four file ids: the chunk framing, checksum
// and connection handling of the read path, in the other direction.
type ingestWrite struct {
	objectBytes int64

	lc     *liveCluster
	ep     endpoint
	cli    *live.RMClient
	tracer *opTracer
	seed   uint64
	sums   [ingestObjects]uint64
	next   int
	last   int // file id of the last acked upload, -1 before the first
}

func (w *ingestWrite) build(seed uint64) error {
	lc, err := startCluster(clusterSpec{
		rms: 1, capacity: unthrottled, files: ingestObjects, fileBytes: w.objectBytes, storage: units.GB,
	})
	if err != nil {
		return err
	}
	w.lc, w.seed, w.last = lc, seed, -1
	w.tracer = &opTracer{}
	if w.ep, err = lc.dial(); err != nil {
		return err
	}
	cli, ok := w.ep.dir.RMClient(1)
	if !ok {
		return fmt.Errorf("ingest_write: RM 1 unreachable")
	}
	w.cli = cli
	return nil
}

func (w *ingestWrite) first() error {
	p := &pass{}
	w.upload(nil, p)
	if p.failed > 0 {
		return fmt.Errorf("%s", p.problems[0])
	}
	return nil
}

// blockReader serves an object's content: one seeded 64 KiB block
// repeated, each repetition stamped with its index so no two blocks of
// an object are equal.
type blockReader struct {
	block  []byte
	off    int64
	size   int64
	stamps uint64
}

func newBlockReader(seed uint64, file int, size int64) *blockReader {
	src := rng.New(seed).Split(fmt.Sprintf("object/%d", file))
	block := make([]byte, ingestBlock)
	for i := 0; i < len(block); i += 8 {
		binary.LittleEndian.PutUint64(block[i:], src.Uint64())
	}
	return &blockReader{block: block, size: size}
}

func (r *blockReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	at := int(r.off % ingestBlock)
	if at == 0 {
		binary.LittleEndian.PutUint64(r.block, r.stamps)
		r.stamps++
	}
	n := copy(p, r.block[at:])
	if rem := r.size - r.off; int64(n) > rem {
		n = int(rem)
	}
	r.off += int64(n)
	return n, nil
}

// warm computes each object's checksum on the client side, then uploads
// for the warm-up time and at least eight objects: every upload makes the
// RM allocate the object twice, and until the heap has grown to its
// steady size each first touch of new memory is a slow page fault.
func (w *ingestWrite) warm(d time.Duration) error {
	buf := make([]byte, ingestBlock)
	for f := range w.sums {
		r := newBlockReader(w.seed, f, w.objectBytes)
		sum := wire.ChecksumBasis
		for {
			n, err := r.Read(buf)
			sum = wire.ChecksumUpdate(sum, buf[:n])
			if err == io.EOF {
				break
			}
		}
		w.sums[f] = sum
	}
	start := time.Now()
	for i := 0; i < 8 || time.Since(start) < d; i++ {
		p := &pass{}
		w.upload(nil, p)
		if p.failed > 0 {
			return fmt.Errorf("warm upload: %s", p.problems[0])
		}
	}
	return nil
}

func (w *ingestWrite) upload(rec *recorder, p *pass) {
	file := w.next
	w.next = (w.next + 1) % ingestObjects
	w.tracer.rec = rec
	op, opStart := w.tracer.begin()
	t0 := time.Now()
	err := w.cli.WriteFile(context.Background(), ids.FileID(file), 0, w.objectBytes, newBlockReader(w.seed, file, w.objectBytes))
	lat := time.Since(t0)
	w.tracer.end(op, opStart, 0)
	p.attempted++
	if err != nil {
		p.fail("upload of object %d: %v", file, err)
		return
	}
	w.last = file
	p.latencies = append(p.latencies, float64(lat)/1e6)
	p.work += float64(w.objectBytes) / mb
}

func (w *ingestWrite) measure(d time.Duration, rec *recorder) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for time.Since(start) < d {
		w.upload(rec, p)
	}
	p.wall = time.Since(start)
	// The median over uploads, as for reads: the RM allocates every
	// object twice, and an upload that meets a collection cycle takes
	// several times the typical one.
	rates := make([]float64, len(p.latencies))
	for i, ms := range p.latencies {
		rates[i] = float64(w.objectBytes) / mb / (ms / 1e3)
	}
	p.workPerS = median(rates)
	return p, nil
}

// verify checks that the disk holds what the client last sent.
func (w *ingestWrite) verify() []string {
	problems := w.lc.leaks()
	if w.last < 0 {
		return append(problems, "no upload was acknowledged")
	}
	got, err := w.lc.disks[0].Checksum(live.FileName(ids.FileID(w.last)))
	if err != nil {
		return append(problems, err.Error())
	}
	if got != w.sums[w.last] {
		problems = append(problems, fmt.Sprintf("object %d on disk has checksum %x, client sent %x", w.last, got, w.sums[w.last]))
	}
	return problems
}

func (w *ingestWrite) close() {
	if w.lc != nil {
		w.lc.close()
		w.lc = nil
	}
}
