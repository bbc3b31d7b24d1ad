// The read engine: one segment scheduler at every width, run over the
// lanes of an open read handle. OpenRead's negotiation admits the top-K
// bidders simultaneously (one reservation per lane, reusing the existing
// CFP fan-out) and the handle holds them until Close. Each read — a FUSE
// pread's byte range, or ReadStriped's whole file — splits its range into
// addressable segments (small ones first, so the stream starts early: see
// segGeometry), and fetchers pull contiguous ranges concurrently — each
// verified by a per-range checksum from the serving RM — while the
// committer writes the completed buffers to the writer in offset order,
// folding them into one CRC-32C sum. A handle with one lane runs two
// fetchers over it, so a second range is always in flight while the first
// finishes; a wider handle runs one fetcher per lane.
// The committer re-folds the bytes it commits rather than combining the
// lanes' range sums: a CRC combine is forty lines of GF(2) matrix code,
// and with the fold in hardware (~20 GB/s, wire.ChecksumUpdate) the
// in-order pass costs about 50 µs per MiB segment, a few percent of what
// the segment costs to move — and it sums the bytes actually handed to
// the writer, after they sat in a recycled buffer.
//
// The segment path allocates nothing in steady state. The board is a
// fixed ring of slots indexed by segment number modulo the commit window
// (every segment the board knows lies in [commit, commit+window), so no
// two share a slot), segment bytes land in buffers drawn from a free
// list (window + fetchers of them cover a healthy read), and the whole run
// — ring, free list, buffers, lane records — is borrowed from a pool for
// the life of one handle and released when it closes (the borrow/Release
// discipline of the wire package's frame buffers), so back-to-back reads
// and handles reuse the same memory.
//
// Failover: a replica dying requeues the unfinished ranges of its lane's
// fetchers for whoever fetches next, and the first of them to see the
// failure re-negotiates a replacement lane under the handle's shared
// MaxFailovers budget. Slow-replica hedging falls out of the same
// machinery: a fetcher with no unassigned work re-issues the oldest
// lagging in-flight range of another replica to its own,
// first-writer-wins, so one slow RM bounds tail latency instead of the
// whole read.
package dfsc

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
	"dfsqos/internal/wire"
	"dfsqos/internal/workload"
)

// Streamer is the to-EOF half of the data plane: StreamAt streams file
// from offset to EOF under reservation req, threading the caller's running
// checksum state and reporting the bytes delivered even on error. The
// live deployment's Directory implements it; the read engine needs the
// ranged half as well (RangeStreamer).
type Streamer interface {
	StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error)
}

// RangeStreamer is the data plane the read engine drives: bounded byte-range
// streams. The live Directory implements it (RMClient.ReadRange); tests
// substitute fakes. ctx may carry a trace span context (trace.NewContext)
// that the implementation propagates onto the stream's wire frames.
// StreamRange must deliver exactly [offset, offset+length) into w
// (clamped at EOF by the server), verifying the range checksum when sum
// is seeded with wire.ChecksumBasis, and report the bytes delivered even
// on error. It is called concurrently, also for one rm and req.
type RangeStreamer interface {
	Streamer
	StreamRange(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error)
}

// SegmentInfo attributes one delivered byte range to the replica that
// served it, so a multi-RM read is auditable segment by segment.
type SegmentInfo struct {
	// Offset/Length locate the segment in the file.
	Offset int64
	Length int64
	// RM is the replica whose copy of the range was committed.
	RM ids.RMID
	// Hedged reports that the committed copy came from a hedge — a
	// speculative re-issue that beat the original lane to completion.
	Hedged bool
}

// ReadResult describes one read.
type ReadResult struct {
	// Bytes is the total delivered to the writer across all segments.
	Bytes int64
	// Failovers is how many times a lane moved to another replica.
	Failovers int
	// RMs lists the serving RMs in lane-admission order: the lanes the
	// first negotiation admitted, then one entry per failover. Segment
	// attribution lives in Segments, because lanes interleave.
	RMs []ids.RMID
	// Segments attributes every committed byte range to its serving RM,
	// in file-offset order (which is also commit order).
	Segments []SegmentInfo
	// Checksum is the whole-file CRC-32C sum (wire.ChecksumUpdate from
	// wire.ChecksumBasis, in the low 32 bits) folded over the delivered
	// bytes in offset order, each range verified against the serving
	// RM's range checksum. Valid only when the read succeeded.
	Checksum uint64
	// Hedges counts slow-lane ranges speculatively re-issued to another
	// replica; HedgesWon counts those where the hedge's copy was the one
	// committed.
	Hedges    int
	HedgesWon int
}

// StripeConfig tunes an open read handle (OpenRead, ReadStriped).
type StripeConfig struct {
	// Width is the number of replica lanes to admit (the K in a K-wide
	// stripe; values < 1 mean 1). Fewer eligible replicas than Width
	// degrades the stripe to the width that exists. Every width runs the
	// same scheduler: one lane gets two fetchers, more get one each.
	Width int
	// SegmentBytes is the steady-state stripe granularity (default 1 MiB):
	// past the opening ramp (see segGeometry) lanes pull ranges of this
	// size, so smaller segments rebalance faster around a slow replica at
	// the cost of more range requests.
	SegmentBytes int64
	// HedgeAfter, when positive, arms slow-replica hedging: an idle lane
	// re-issues an in-flight range that has been running longer than this
	// against its own replica, first-writer-wins. Zero disables hedging.
	HedgeAfter time.Duration
	// MaxFailovers bounds lane re-admissions across the whole handle (0: a
	// dead lane is not replaced; negative is treated as 0). One replica
	// failure spends one failover however many fetchers saw it. Surviving
	// lanes keep the handle alive either way — a read fails only when no
	// lane remains and segments are still missing.
	MaxFailovers int
	// Backoff is the base delay before a lane re-negotiation, jittered
	// uniformly over [0.5×, 1.5×] so synchronized clients do not stampede
	// the survivors. Zero defaults to 50ms.
	Backoff time.Duration
}

// slotState is where a board slot's segment stands.
type slotState uint8

const (
	slotIdle     slotState = iota // unassigned, or requeued by a dead lane
	slotInflight                  // a lane is fetching it
	slotDone                      // fetched and verified, awaiting commit
)

// stripeSlot is the board's record of one segment. Segment idx lives in
// slots[idx%window]; the board only holds segments in
// [commit, commit+window), so the mapping never collides — but a lane
// coming back with an old idx must check idx ≥ commit before it looks.
type stripeSlot struct {
	state  slotState
	rm     ids.RMID  // in flight: the lane it is assigned to; done: the replica whose copy won
	start  time.Time // in flight: assignment time, the hedge-eligibility clock
	hedged bool      // in flight: a hedge copy is (or was) racing; done: the hedge's copy won
	data   []byte    // done: the segment bytes, in a free-list buffer
}

// segWriter receives bytes into a fixed buffer: one range into a segment
// buffer, or a read's segments into the caller's slice (Reader.ReadAt).
// StreamRange is asked for at most cap(buf) bytes; a streamer that
// delivers more is refused rather than allowed to grow the buffer. A
// streamer may receive straight into the buffer's spare capacity
// (AvailableBuffer, as on bufio.Writer): a Write of bytes already in place
// only extends the buffer over them.
type segWriter struct{ buf []byte }

// AvailableBuffer returns the segment buffer's spare capacity, empty, for
// a streamer to receive into and then pass to Write.
func (w *segWriter) AvailableBuffer() []byte { return w.buf[len(w.buf):] }

func (w *segWriter) Write(p []byte) (int, error) {
	if len(p) > cap(w.buf)-len(w.buf) {
		return 0, fmt.Errorf("dfsc: range overruns its %d-byte segment buffer", cap(w.buf))
	}
	if w.inPlace(p) {
		w.buf = w.buf[:len(w.buf)+len(p)]
	} else {
		w.buf = append(w.buf, p...)
	}
	return len(p), nil
}

// inPlace reports whether p already lies at the buffer's tail, where a
// streamer that received through AvailableBuffer left it. Caller has
// checked that p fits.
func (w *segWriter) inPlace(p []byte) bool {
	return len(p) > 0 && &p[0] == &w.buf[len(w.buf):cap(w.buf)][0]
}

// laneIO is what a fetcher hands StreamRange by pointer for every
// segment; it lives in the pooled run so those pointers cost no
// allocation.
type laneIO struct {
	w   segWriter
	sum uint64
}

// oneLaneFetchers is how many fetchers share a handle's only lane. With
// one, every range pays a request round trip that nothing overlaps; with
// two, one range is always in flight while the other's FileEnd comes
// back. Wider handles keep one fetcher per lane: their lanes already
// overlap each other, and a second fetcher each slows the first byte.
const oneLaneFetchers = 2

// lease is one admitted reservation. The handle holds a reference while
// the lease is a live lane's current one, and every range streaming on it
// holds one; the last reference to go releases it. So a lease the lane has
// replaced stays open until a sibling's range still on it ends, and that
// range keeps running under its reservation's throttle.
type lease struct {
	held grant
	refs int
}

// unrefUnlock drops one reference to l and unlocks st.mu, then releases
// the reservation if that was the last reference. Caller holds st.mu.
func (c *Client) unrefUnlock(st *stripeRun, l *lease) {
	l.refs--
	last := l.refs == 0
	st.mu.Unlock()
	if last {
		c.release(l.held)
	}
}

// lane is one admitted slot of a handle and the fetchers pulling ranges
// over it during a read. When its replica fails, the first fetcher to see
// it re-negotiates the lane (renewing, cur nil) while the others wait; a
// fetcher whose range failed on an already-replaced lease just moves on. A
// lane that dies stays dead for the rest of the handle. Every field is
// guarded by the run's mutex.
type lane struct {
	cur      *lease // nil while renewing, and once dead
	first    lease  // backs cur until the first replacement
	renewing bool   // a fetcher is re-negotiating the lane
	dead     bool   // the replica failed and will not be replaced
}

// stripeRun is a handle's scheduler state: one mutex/cond pair guards
// the segment board (unassigned cursor, requeue list, slot ring, buffer
// free list), the lane records, and the result accumulators fetchers
// update. Runs are pooled: borrowStripeRun hands one out for a handle,
// release returns it.
type stripeRun struct {
	mu   sync.Mutex
	cond *sync.Cond

	segGeometry     // the current read's layout
	window      int // commit-window width in segments, bounds buffering

	next     int          // lowest never-assigned segment index
	requeue  []int        // segments returned by dead lanes, kept sorted
	slots    []stripeSlot // the board, indexed idx % window
	inflight int          // slots in slotInflight
	commit   int          // next segment index the committer needs

	// free holds idle segment buffers, each of capacity bufBytes. A healthy
	// read has at most window + fetchers out at once — the board's
	// segments, one hedge copy per other fetcher, the one the committer is
	// writing — and they are made on first use, so a short read never pays
	// for the set.
	free     [][]byte
	bufBytes int64
	io       []laneIO // one per fetcher
	lanes    []lane   // one per admitted lane

	running   int // the current read's fetcher goroutines not yet exited
	failovers int // the handle's MaxFailovers budget spent
	exclude   map[ids.RMID]bool
	cause     error // the failure that killed the most recent lane
	err       error // terminal: the current read cannot finish

	// res accumulates under mu: RMs, Failovers and the hedge counts over
	// the handle, Bytes and Segments over the current read.
	res ReadResult
}

var stripeRuns = sync.Pool{New: func() any {
	st := &stripeRun{exclude: make(map[ids.RMID]bool)}
	st.cond = sync.NewCond(&st.mu)
	return st
}}

// borrowStripeRun takes a run from the pool and sizes it for a handle of
// up to width lanes, keeping whatever the previous borrower left that
// still fits.
func borrowStripeRun(width int) *stripeRun {
	st := stripeRuns.Get().(*stripeRun)
	st.window = 2*width + 2
	if cap(st.slots) < st.window {
		st.slots = make([]stripeSlot, st.window)
	}
	st.slots = st.slots[:st.window]
	fetchers := max(width, oneLaneFetchers)
	if need := st.window + fetchers; cap(st.free) < need {
		st.free = append(make([][]byte, 0, need), st.free...)
	}
	if cap(st.io) < fetchers {
		st.io = make([]laneIO, fetchers)
	}
	st.io = st.io[:fetchers]
	if cap(st.lanes) < width {
		st.lanes = make([]lane, 0, width)
	}
	return st
}

// lay sets the board up for a read of [base, base+size): buffers the last
// read left on it (a failed read's segments) go back to the free list, and
// the buffers grow if they are too small for the new segments.
func (st *stripeRun) lay(base, size, segBytes int64, width int) {
	for i := range st.slots {
		if st.slots[i].data != nil {
			st.putBufLocked(st.slots[i].data)
		}
		st.slots[i] = stripeSlot{}
	}
	st.next, st.commit, st.inflight, st.err = 0, 0, 0, nil
	st.requeue = st.requeue[:0]
	st.segGeometry = newSegGeometry(base, size, segBytes, width)
	if bufBytes := min(segBytes, size); st.bufBytes < bufBytes {
		st.bufBytes = bufBytes
		clear(st.free)
		st.free = st.free[:0]
	}
	st.res.Bytes = 0
	st.res.Segments = make([]SegmentInfo, 0, st.numSegs)
}

// release resets the handle's part of the run and returns it to the pool;
// the next read's lay clears the board. res is dropped, not reused — the
// caller owns its slices.
func (st *stripeRun) release() {
	clear(st.lanes)
	st.lanes = st.lanes[:0]
	st.failovers = 0
	clear(st.exclude)
	st.cause = nil
	st.res = ReadResult{}
	stripeRuns.Put(st)
}

func (st *stripeRun) slot(idx int) *stripeSlot { return &st.slots[idx%st.window] }

// getBufLocked returns an empty segment buffer. Caller holds st.mu.
func (st *stripeRun) getBufLocked() []byte {
	if n := len(st.free); n > 0 {
		buf := st.free[n-1]
		st.free = st.free[:n-1]
		return buf
	}
	return make([]byte, 0, st.bufBytes)
}

// putBufLocked hands a segment buffer back. Caller holds st.mu (or owns
// the run outright).
func (st *stripeRun) putBufLocked(buf []byte) { st.free = append(st.free, buf[:0]) }

// firstSegmentBytes is the size of a read's opening segments. The
// committer may not hand the read's first byte to the writer until segment
// 0 has arrived whole and verified against its FileEnd checksum, so the
// first segment's size — not SegmentBytes — is what a stream waits for
// before it starts.
const firstSegmentBytes = 32 << 10

// segGeometry is a read's segment layout over [base, base+size), a pure
// function of (base, size, SegmentBytes, Width): the layout of [0, size)
// shifted by base. Round r of the opening ramp is width segments of
// firstSegmentBytes<<r each, for as long as that is under segBytes; from
// there on segments are segBytes, the last one clamped at the read's end.
// The first byte then waits for one 32 KiB range on one lane while every
// lane still reaches full-size ranges within a few round trips. segBytes ≤
// firstSegmentBytes has no ramp: the layout is uniform.
type segGeometry struct {
	base, size, segBytes int64
	width                int64
	numSegs              int   // segments that cover the read
	rampSegs             int   // of them, those in the ramp's rounds
	rampBytes            int64 // bytes the ramp's rounds cover
}

func newSegGeometry(base, size, segBytes int64, width int) segGeometry {
	g := segGeometry{base: base, size: size, segBytes: segBytes, width: int64(width)}
	left := size
	for seg := int64(firstSegmentBytes); seg < segBytes; seg <<= 1 {
		round := g.width * seg
		g.rampSegs += width
		g.rampBytes += round
		if left <= round {
			// The read ends inside this round: it is all ramp.
			g.numSegs = g.rampSegs - width + int((left+seg-1)/seg)
			return g
		}
		left -= round
	}
	g.numSegs = g.rampSegs + int((left+segBytes-1)/segBytes)
	return g
}

// segRange returns the file byte range of segment idx.
func (g segGeometry) segRange(idx int) (off, length int64) {
	if idx >= g.rampSegs {
		off = g.rampBytes + int64(idx-g.rampSegs)*g.segBytes
		length = g.segBytes
	} else {
		// Rounds 0..r-1 cover width × firstSegmentBytes × (2^r − 1) bytes.
		r, k := uint(int64(idx)/g.width), int64(idx)%g.width
		length = firstSegmentBytes << r
		off = g.width*firstSegmentBytes*(1<<r-1) + k*length
	}
	if off+length > g.size {
		length = g.size - off
	}
	return g.base + off, length
}

// Reader is an open read handle on one file: the lanes one negotiation
// admitted, the failover budget and the replicas excluded so far, held
// from OpenRead until Close. Each read is a run of the segment scheduler
// over a byte range, under the handle's reservations. Its methods are safe
// for concurrent use; reads on one handle run one at a time.
type Reader struct {
	c    *Client
	rs   RangeStreamer
	file ids.FileID
	size int64
	cfg  StripeConfig

	mu     sync.Mutex      // serialises reads and Close
	st     *stripeRun      // nil once closed, and for an empty file
	root   *trace.Span     // the handle's "dfsc.stripe" span
	ctx    context.Context // carries root to every range and negotiation
	opened time.Time
	bytes  int64 // delivered over the handle's life
}

// OpenRead opens file for reading through rs: it negotiates up to
// cfg.Width lanes (see StripeConfig) and holds their reservations until
// Close. An empty file holds none: there is nothing to stream. A file
// outside the catalog is an error, as is one no RM admits.
func (c *Client) OpenRead(rs RangeStreamer, file ids.FileID, cfg StripeConfig) (*Reader, error) {
	if file < 0 || int(file) >= c.cat.Len() {
		return nil, fmt.Errorf("dfsc: read %v: no such file", file)
	}
	cfg.Width = max(cfg.Width, 1)
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.MaxFailovers < 0 {
		cfg.MaxFailovers = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	r := &Reader{c: c, rs: rs, file: file, size: int64(c.cat.File(file).Size), cfg: cfg, opened: time.Now()}
	if r.size == 0 {
		c.add(&c.stats.StripeReads, 1)
		return r, nil
	}

	// One root span covers the handle: every segment and negotiation hangs
	// off it. Negotiations run under this plain context, ranges under a
	// cancellable child (run): a cancellable control call costs a callback.
	r.root = c.tracer.StartRoot(c.nextRequestID(&c.stats.StripeReads), "dfsc.stripe").SetFile(file)
	r.ctx = trace.NewContext(context.Background(), r.root.Context())
	st := borrowStripeRun(cfg.Width)
	held, fail := c.negotiateLanes(r.ctx, nil, workload.OpRead, file, st.exclude, cfg.Width)
	if len(held) == 0 {
		st.release()
		r.root.SetOutcome("error").End()
		if fail.Code != 0 {
			// The refusal's text is the reason.
			return nil, fmt.Errorf("dfsc: read %v: %w", file, fail.Code)
		}
		return nil, fmt.Errorf("dfsc: read %v: %s", file, fail.Reason)
	}
	c.add(&c.stats.StripeLanes, int64(len(held)))
	st.res.RMs = make([]ids.RMID, 0, len(held))
	for _, h := range held {
		st.res.RMs = append(st.res.RMs, h.out.RM)
		st.lanes = append(st.lanes, lane{first: lease{held: h, refs: 1}})
	}
	for i := range st.lanes {
		st.lanes[i].cur = &st.lanes[i].first
	}
	r.st = st
	return r, nil
}

// ReadAt reads len(p) bytes of the file at off into p (io.ReaderAt): one
// run of the segment scheduler over [off, off+len(p)), clamped at the end
// of the file. A read that reaches the end of the file returns io.EOF with
// its bytes.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("dfsc: read %v: negative offset %d", r.file, off)
	}
	if off >= r.size {
		return 0, io.EOF
	}
	n := min(int64(len(p)), r.size-off)
	res, err := r.run(&segWriter{buf: p[:0:n]}, off, n)
	switch {
	case err != nil:
	case res.Bytes < n:
		err = io.ErrUnexpectedEOF
	case off+n == r.size:
		err = io.EOF
	}
	return int(res.Bytes), err
}

// Close releases the handle's reservations once a read in progress has
// ended. Closing a closed handle does nothing.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	if st == nil {
		return nil
	}
	r.st = nil
	for i := range st.lanes {
		if ls := st.lanes[i].cur; ls != nil {
			st.mu.Lock()
			r.c.unrefUnlock(st, ls) // the handle's reference: no range is left on it
		}
	}
	st.release()
	r.root.End()
	return nil
}

// ReadStriped reads file through s as a K-wide stripe (see StripeConfig),
// writing the bytes to w in offset order and returning the per-segment
// attribution, failover/hedge counts, and the whole-file checksum. It is
// a handle opened for one whole-file read. s must serve ranged reads
// (RangeStreamer).
func (c *Client) ReadStriped(s Streamer, file ids.FileID, w io.Writer, cfg StripeConfig) (ReadResult, error) {
	rs, ranged := s.(RangeStreamer)
	if !ranged {
		return ReadResult{}, fmt.Errorf("dfsc: read %v: %T serves no ranged reads", file, s)
	}
	r, err := c.OpenRead(rs, file, cfg)
	if err != nil {
		return ReadResult{}, err
	}
	defer r.Close()
	return r.run(w, 0, r.size)
}

// run is one read: the segment scheduler over [base, base+n) of the file
// on the handle's lanes, writing the bytes to w in offset order and
// folding them into res.Checksum.
func (r *Reader) run(w io.Writer, base, n int64) (ReadResult, error) {
	if n == 0 {
		return ReadResult{Checksum: wire.ChecksumBasis}, nil // nothing to stream
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	if st == nil {
		return ReadResult{}, fmt.Errorf("dfsc: read %v: handle closed", r.file)
	}
	c, cfg := r.c, r.cfg
	st.lay(base, n, cfg.SegmentBytes, cfg.Width)

	// The fetchers run under a context the committer cancels the moment the
	// read aborts, so a failed writer does not wait out (and keep reserved)
	// a whole segment per fetcher behind the throttle.
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	perLane := 1
	if len(st.lanes) == 1 {
		perLane = oneLaneFetchers
	}
	var wg sync.WaitGroup
	st.running = len(st.lanes) * perLane
	for i := range st.running {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.fetch(ctx, st, r.rs, r.file, &st.lanes[i%len(st.lanes)], &st.io[i], cfg, r.root)
		}()
	}

	// The caller's goroutine is the committer: it writes completed
	// segments to w in offset order and folds them into the read's sum (a
	// CRC state chains, it does not commute — offset order is mandatory).
	firstByte := r.bytes == 0
	sum := wire.ChecksumBasis
	st.mu.Lock()
	for st.commit < st.numSegs && st.err == nil {
		sl := st.slot(st.commit)
		if sl.state != slotDone {
			if st.running == 0 {
				// Every fetcher has exited and the next segment is not on
				// the board: nobody is left to fetch it. This is the one
				// place that verdict is reached, after the last fetcher's
				// exit is visible — fetchers dying together cannot each
				// mistake the other for a survivor.
				st.err = fmt.Errorf("dfsc: read %v: %d failover(s) exhausted, no lane left: %w",
					r.file, st.failovers, st.cause)
				break
			}
			st.cond.Wait()
			continue
		}
		idx, data := st.commit, sl.data
		off, _ := st.segRange(idx)
		st.res.Segments = append(st.res.Segments, SegmentInfo{
			Offset: off, Length: int64(len(data)), RM: sl.rm, Hedged: sl.hedged,
		})
		st.res.Bytes += int64(len(data))
		*sl = stripeSlot{}
		st.commit++
		st.cond.Broadcast() // the commit window advanced
		st.mu.Unlock()
		c.add(&c.stats.Segments, 1)
		_, werr := w.Write(data)
		if werr == nil {
			if firstByte {
				c.met.StripeFirstByte.Observe(time.Since(r.opened).Seconds())
				firstByte = false
			}
			sum = wire.ChecksumUpdate(sum, data)
		}
		st.mu.Lock()
		st.putBufLocked(data)
		if werr != nil && st.err == nil {
			st.err = fmt.Errorf("dfsc: writing segment %d: %w", idx, werr)
		}
	}
	if st.err != nil {
		st.cond.Broadcast() // idle fetchers must see the abort
		cancel()            // and busy ones drop their ranges
	}
	st.mu.Unlock()
	wg.Wait()
	// Every fetcher has exited: the run is the committer's alone again, and
	// the result holds the last fetcher's failover and hedge counts.
	err, res := st.err, st.res
	r.bytes += res.Bytes
	r.root.SetBytes(r.bytes)
	if err != nil {
		r.root.SetOutcome("error")
		return res, err
	}
	res.Checksum = sum
	r.root.SetOutcome("ok")
	return res, nil
}

// hedgePoll bounds how long an idle fetcher sleeps between
// hedge-eligibility scans (eligibility is time-based, so nothing
// broadcasts it).
const hedgePoll = 5 * time.Millisecond

// fetch is one fetcher goroutine: it claims segments off the shared
// board and streams them over its lane's reservation until the read
// completes, the read aborts, or the lane dies. lio is the fetcher's own
// receive state in the run.
func (c *Client) fetch(ctx context.Context, st *stripeRun, rs RangeStreamer, file ids.FileID, ln *lane, lio *laneIO, cfg StripeConfig, root *trace.Span) {
	defer func() {
		st.mu.Lock()
		st.running--
		if st.running == 0 {
			st.cond.Broadcast() // the committer decides whether the board is dead
		}
		st.mu.Unlock()
	}()
	for {
		st.mu.Lock()
		for ln.renewing && st.err == nil {
			st.cond.Wait() // a sibling is replacing the lane's replica
		}
		if ln.dead || ln.cur == nil {
			// Dead, or the read aborted while a sibling was renewing.
			st.mu.Unlock()
			return
		}
		ls := ln.cur
		out := ls.held.out
		idx, hedge, ok := st.claimLocked(out.RM, cfg.HedgeAfter)
		if !ok {
			if st.err != nil || st.commit == st.numSegs {
				st.mu.Unlock()
				return
			}
			// No claimable work right now. Hedge eligibility is a clock,
			// not an event, so poll while anything is in flight; block on
			// the cond otherwise.
			if cfg.HedgeAfter > 0 && st.inflight > 0 {
				st.mu.Unlock()
				time.Sleep(hedgePoll)
			} else {
				st.cond.Wait()
				st.mu.Unlock()
			}
			continue
		}
		// A hedge copy fills its own buffer: the original is still writing
		// into its one, and whichever finishes first hands the board its.
		ls.refs++ // this range's reference
		lio.w.buf = st.getBufLocked()
		if hedge {
			st.res.Hedges++
			c.add(&c.stats.Hedges, 1)
		}
		st.mu.Unlock()

		off, length := st.segRange(idx)
		seg := c.tracer.StartChild(root.Context(), "dfsc.segment").
			SetRM(out.RM).SetFile(file).SetRequest(out.Request).SetOffset(off)
		lio.sum = wire.ChecksumBasis
		n, err := rs.StreamRange(ctx, out.RM, file, out.Request, off, length, &lio.w, &lio.sum)
		seg.SetBytes(n)

		if err == nil {
			st.mu.Lock()
			if sl := st.slot(idx); idx < st.commit || sl.state == slotDone {
				// The other copy of a hedged segment won the race; this
				// one is discarded (first-writer-wins).
				st.putBufLocked(lio.w.buf)
				seg.SetOutcome("hedge-lost")
			} else {
				if sl.state == slotInflight {
					st.inflight--
				}
				*sl = stripeSlot{state: slotDone, rm: out.RM, hedged: hedge, data: lio.w.buf}
				if hedge {
					st.res.HedgesWon++
					c.add(&c.stats.HedgesWon, 1)
				}
				seg.SetOutcome("ok")
			}
			st.cond.Broadcast()
			c.unrefUnlock(st, ls)
			seg.End()
			continue
		}
		seg.SetOutcome("failover").End()

		// The replica failed mid-range. Return the segment to the board
		// (unless a hedge already finished it, or this WAS the hedge copy —
		// the original owner still holds it).
		st.mu.Lock()
		st.putBufLocked(lio.w.buf)
		if st.err != nil {
			// The read aborted under this range (the committer cancelled
			// ctx): nothing to requeue, nobody to fail over for.
			c.unrefUnlock(st, ls)
			return
		}
		if !hedge && idx >= st.commit && st.slot(idx).state == slotInflight {
			st.requeueLocked(idx)
		}
		if ln.renewing || ln.cur != ls || ln.dead {
			// A sibling saw the failure first and is replacing (or has
			// replaced, or given up on) the replica: its failover covers
			// this range too. The loop head sends this fetcher on or home.
			c.unrefUnlock(st, ls)
			continue
		}
		ls.refs-- // the lane still holds ls, so this is not the last reference
		st.exclude[out.RM] = true
		st.cause = err
		ln.cur = nil
		if st.failovers >= cfg.MaxFailovers {
			// The lane dies with its lease: the handle's reference goes now,
			// not at Close, and the lease is released once no sibling's
			// range is left on it.
			ln.dead = true
			st.cond.Broadcast() // idle siblings must see it
			c.unrefUnlock(st, ls)
			return
		}
		st.failovers++
		ln.renewing = true
		exclude := make(map[ids.RMID]bool, len(st.exclude))
		for rm := range st.exclude {
			exclude[rm] = true
		}
		// Drop the lane's reference: the dead lease is released now, or by
		// a sibling when its range on it ends.
		c.unrefUnlock(st, ls)

		c.sleepJittered(cfg.Backoff)
		start := time.Now()
		repl, fail := c.negotiateLanes(ctx, nil, workload.OpRead, file, exclude, 1)
		st.mu.Lock()
		ln.renewing = false
		st.cond.Broadcast() // waiting siblings move to the replacement, or leave
		if len(repl) == 0 {
			ln.dead = true
			st.cause = fmt.Errorf("failover %d found no replica: %s (after: %w)", st.failovers, fail.Reason, err)
			st.mu.Unlock()
			return
		}
		ln.cur = &lease{held: repl[0], refs: 1}
		st.res.Failovers++
		st.res.RMs = append(st.res.RMs, repl[0].out.RM)
		st.mu.Unlock()
		c.met.FailoverLatency.Observe(time.Since(start).Seconds())
		c.add(&c.stats.Failovers, 1)
	}
}

// sleepJittered sleeps for base scaled uniformly into [0.5, 1.5), drawn
// from the client's seeded jitter stream so chaos runs stay reproducible.
func (c *Client) sleepJittered(base time.Duration) {
	c.mu.Lock()
	f := c.jitter.Float64()
	c.mu.Unlock()
	time.Sleep(time.Duration(float64(base) * (0.5 + f)))
}

// claimLocked hands a fetcher on rm its next segment: a requeued range
// first, then the next unassigned one inside the commit window, then —
// when the board is drained and hedging is armed — the oldest lagging
// in-flight range owned by a DIFFERENT replica, as a first-writer-wins
// hedge copy (fetchers sharing a lane never hedge each other).
// Caller holds st.mu.
func (st *stripeRun) claimLocked(rm ids.RMID, hedgeAfter time.Duration) (idx int, hedge, ok bool) {
	if st.err != nil || st.commit == st.numSegs {
		return 0, false, false
	}
	for len(st.requeue) > 0 {
		idx = st.requeue[0]
		st.requeue = st.requeue[1:]
		// A hedge copy may have finished (even committed) the range while
		// it sat here; then its slot is no longer this segment's to claim.
		if idx >= st.commit && st.slot(idx).state == slotIdle {
			st.assignLocked(idx, rm)
			return idx, false, true
		}
	}
	if st.next < st.numSegs && st.next < st.commit+st.window {
		idx = st.next
		st.next++
		st.assignLocked(idx, rm)
		return idx, false, true
	}
	if hedgeAfter > 0 {
		best := -1
		var bestStart time.Time
		for i := st.commit; i < st.next; i++ {
			s := st.slot(i)
			if s.state != slotInflight || s.hedged || s.rm == rm {
				continue
			}
			if time.Since(s.start) < hedgeAfter {
				continue
			}
			if best == -1 || s.start.Before(bestStart) {
				best, bestStart = i, s.start
			}
		}
		if best >= 0 {
			st.slot(best).hedged = true
			return best, true, true
		}
	}
	return 0, false, false
}

// assignLocked marks an idle segment in flight on rm. Caller holds st.mu.
func (st *stripeRun) assignLocked(idx int, rm ids.RMID) {
	*st.slot(idx) = stripeSlot{state: slotInflight, rm: rm, start: time.Now()}
	st.inflight++
}

// requeueLocked returns a failed fetcher's in-flight segment to the board,
// keeping the requeue list sorted so low offsets (the ones gating the
// committer) are reassigned first. Caller holds st.mu.
func (st *stripeRun) requeueLocked(idx int) {
	*st.slot(idx) = stripeSlot{}
	st.inflight--
	at := sort.SearchInts(st.requeue, idx)
	st.requeue = append(st.requeue, 0)
	copy(st.requeue[at+1:], st.requeue[at:])
	st.requeue[at] = idx
	st.cond.Broadcast()
}
