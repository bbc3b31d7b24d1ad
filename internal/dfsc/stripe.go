// K-wide striped reads: one segment scheduler generalizing the failover
// reader. The file is split into addressable byte-range segments (small
// ones first, so the stream starts early: see segGeometry), the
// negotiation admits the top-K bidders simultaneously (one reservation
// per lane, reusing the existing CFP fan-out), and lanes pull contiguous
// ranges concurrently — each verified by a per-range checksum from the
// serving RM — while the committer writes the completed buffers to the
// writer in offset order, folding them into one whole-file CRC-32C sum.
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
// list (window + Width of them cover a healthy read), and the whole run
// — ring, free list, buffers — is borrowed from a pool for the duration
// of one read and released when it returns (the borrow/Release
// discipline of the wire package's frame buffers), so back-to-back reads
// reuse the same memory.
//
// Failover is the degenerate behavior the old reader already had: a lane
// dying requeues its unfinished range for the surviving lanes and
// re-negotiates a replacement under the shared MaxFailovers budget.
// Slow-replica hedging falls out of the same machinery: a lane with no
// unassigned work re-issues the oldest lagging in-flight range to its
// own replica, first-writer-wins, so one slow RM bounds tail latency
// instead of the whole read.
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
)

// RangeStreamer is the data plane a striped read drives: StreamAt for
// the sequential fallback plus bounded byte-range streams. The live
// Directory implements it (RMClient.ReadRange); tests substitute fakes.
// StreamRange must deliver exactly [offset, offset+length) into w
// (clamped at EOF by the server), verifying the range checksum when sum
// is seeded with wire.ChecksumBasis, and report the bytes delivered even
// on error.
type RangeStreamer interface {
	Streamer
	StreamRange(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error)
}

// StripeConfig tunes ReadStriped.
type StripeConfig struct {
	// Width is the number of replica lanes to admit (the K in a K-wide
	// stripe). Values ≤ 1 — or a Streamer without ranged reads — degrade
	// to the sequential ReadWithFailover path, which is behaviorally
	// identical to the pre-stripe reader. Fewer eligible replicas than
	// Width degrades the stripe to the width that exists.
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
	// MaxFailovers bounds lane re-admissions across the whole read, the
	// same budget ReadWithFailover spends on sequential failovers (0: a
	// dead lane is not replaced; negative is treated as 0). Surviving
	// lanes keep the read alive either way — the read fails only when no
	// lane remains and segments are still missing.
	MaxFailovers int
	// Backoff is the base delay before a lane re-negotiation, jittered
	// like ReadWithFailover's. Zero defaults to 50ms.
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

// segWriter receives one range into a segment buffer. StreamRange is
// asked for at most cap(buf) bytes; a streamer that delivers more is
// refused rather than allowed to grow the buffer.
type segWriter struct{ buf []byte }

func (w *segWriter) Write(p []byte) (int, error) {
	if len(p) > cap(w.buf)-len(w.buf) {
		return 0, fmt.Errorf("dfsc: range overruns its %d-byte segment buffer", cap(w.buf))
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// laneIO is what a lane hands StreamRange by pointer for every segment;
// it lives in the pooled run so those pointers cost no allocation.
type laneIO struct {
	w   segWriter
	sum uint64
}

// stripeRun is the shared scheduler state: one mutex/cond pair guards
// the segment board (unassigned cursor, requeue list, slot ring, buffer
// free list) plus the result accumulators lanes update. Runs are pooled:
// borrowStripeRun hands one out sized for a read, release returns it.
type stripeRun struct {
	mu   sync.Mutex
	cond *sync.Cond

	segGeometry
	window int // commit-window width in segments, bounds buffering

	next     int          // lowest never-assigned segment index
	requeue  []int        // segments returned by dead lanes, kept sorted
	slots    []stripeSlot // the board, indexed idx % window
	inflight int          // slots in slotInflight
	commit   int          // next segment index the committer needs

	// free holds idle segment buffers, each of capacity bufBytes. A healthy
	// read has at most window + Width out at once — the board's segments,
	// one hedge copy per other lane, the one the committer is writing — and
	// they are made on first use, so a short file never pays for the set.
	free     [][]byte
	bufBytes int64
	io       []laneIO // one per lane goroutine

	lanes     int // live lane goroutines
	failovers int // shared MaxFailovers budget spent
	exclude   map[ids.RMID]bool
	cause     error // the failure that killed the most recent lane
	err       error // terminal: the read cannot finish

	res ReadResult // RMs/Hedges accumulate here under mu
}

var stripeRuns = sync.Pool{New: func() any {
	st := &stripeRun{exclude: make(map[ids.RMID]bool)}
	st.cond = sync.NewCond(&st.mu)
	return st
}}

// borrowStripeRun takes a run from the pool and sizes it for one read of
// size bytes in segBytes segments over width lanes, keeping whatever the
// previous borrower left that still fits.
func borrowStripeRun(size, segBytes int64, width int) *stripeRun {
	st := stripeRuns.Get().(*stripeRun)
	st.segGeometry = newSegGeometry(size, segBytes, width)
	st.window = 2*width + 2
	if cap(st.slots) < st.window {
		st.slots = make([]stripeSlot, st.window)
	}
	st.slots = st.slots[:st.window]
	if bufBytes := min(segBytes, size); st.bufBytes != bufBytes {
		st.bufBytes = bufBytes
		clear(st.free)
		st.free = st.free[:0]
	}
	if need := st.window + width; cap(st.free) < need {
		st.free = append(make([][]byte, 0, need), st.free...)
	}
	if cap(st.io) < width {
		st.io = make([]laneIO, width)
	}
	st.io = st.io[:width]
	return st
}

// release resets the run and returns it to the pool. Buffers still on
// the board (a failed read's uncommitted segments) go back to the free
// list; res is dropped, not reused — the caller owns its slices.
func (st *stripeRun) release() {
	for i := range st.slots {
		if st.slots[i].data != nil {
			st.putBufLocked(st.slots[i].data)
		}
		st.slots[i] = stripeSlot{}
	}
	st.next, st.commit, st.inflight = 0, 0, 0
	st.requeue = st.requeue[:0]
	st.lanes, st.failovers = 0, 0
	clear(st.exclude)
	st.cause, st.err = nil, nil
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
// committer may not hand byte 0 to the writer until segment 0 has arrived
// whole and verified against its FileEnd checksum, so the first segment's
// size — not SegmentBytes — is what a stream waits for before it starts.
const firstSegmentBytes = 32 << 10

// segGeometry is a read's segment layout, a pure function of (size,
// SegmentBytes, Width): round r of the opening ramp is width segments of
// firstSegmentBytes<<r each, for as long as that is under segBytes; from
// there on segments are segBytes, the last one clamped at EOF. The first
// byte then waits for one 32 KiB range on one lane while every lane still
// reaches full-size ranges within a few round trips. segBytes ≤
// firstSegmentBytes has no ramp: the layout is uniform.
type segGeometry struct {
	size, segBytes int64
	width          int64
	numSegs        int   // segments that cover the file
	rampSegs       int   // of them, those in the ramp's rounds
	rampBytes      int64 // bytes the ramp's rounds cover
}

func newSegGeometry(size, segBytes int64, width int) segGeometry {
	g := segGeometry{size: size, segBytes: segBytes, width: int64(width)}
	left := size
	for seg := int64(firstSegmentBytes); seg < segBytes; seg <<= 1 {
		round := g.width * seg
		g.rampSegs += width
		g.rampBytes += round
		if left <= round {
			// EOF falls inside this round: the file is all ramp.
			g.numSegs = g.rampSegs - width + int((left+seg-1)/seg)
			return g
		}
		left -= round
	}
	g.numSegs = g.rampSegs + int((left+segBytes-1)/segBytes)
	return g
}

// segRange returns the byte range of segment idx.
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
	return off, length
}

// ReadStriped reads file through s as a K-wide stripe (see StripeConfig),
// writing the bytes to w in offset order and returning the per-segment
// attribution, failover/hedge counts, and the whole-file checksum. With
// Width ≤ 1, or when s cannot serve ranged reads, it is exactly
// ReadWithFailover — the sequential reader is the 1-wide stripe.
func (c *Client) ReadStriped(s Streamer, file ids.FileID, w io.Writer, cfg StripeConfig) (ReadResult, error) {
	rs, ranged := s.(RangeStreamer)
	if cfg.Width <= 1 || !ranged {
		return c.ReadWithFailover(s, file, w, FailoverConfig{MaxFailovers: cfg.MaxFailovers, Backoff: cfg.Backoff})
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.MaxFailovers < 0 {
		cfg.MaxFailovers = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	c.met.StripeReads.Inc()
	start := time.Now()

	size := int64(c.cat.File(file).Size)
	if size == 0 {
		// Nothing to stream, nothing to reserve: an empty file is a
		// successful read of zero segments with the basis checksum.
		return ReadResult{Checksum: wire.ChecksumBasis}, nil
	}

	st := borrowStripeRun(size, cfg.SegmentBytes, cfg.Width)
	defer st.release()

	// One root span covers the whole stripe; every lane's "dfsc.segment"
	// children hang off it, so /traces shows all lanes of one read as one
	// tree — the same shape a failover read already has, wider.
	root := c.tracer.StartRoot(c.nextRequestID(), "dfsc.stripe").SetFile(file)
	defer root.End()
	ctx := trace.NewContext(context.Background(), root.Context())

	lanes, fail := c.accessLanesCtx(ctx, file, st.exclude, cfg.Width)
	if len(lanes) == 0 {
		root.SetOutcome("error")
		return ReadResult{}, fmt.Errorf("dfsc: read %v: %s", file, fail.Reason)
	}
	// The lanes run under a context the committer cancels the moment the
	// read aborts, so a failed writer does not wait out (and keep reserved)
	// a whole segment per lane behind the throttle. The negotiation above
	// stays on the plain one: a control call under a cancellable context
	// pays for a cancellation callback.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.met.StripeLanes.Add(uint64(len(lanes)))
	st.res.Segments = make([]SegmentInfo, 0, st.numSegs)
	st.res.RMs = make([]ids.RMID, 0, len(lanes))
	for _, ln := range lanes {
		st.res.RMs = append(st.res.RMs, ln.out.RM)
	}

	var wg sync.WaitGroup
	st.lanes = len(lanes)
	for i, ln := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.stripeLane(ctx, st, rs, file, ln, &st.io[i], cfg, root)
		}()
	}

	// The caller's goroutine is the committer: it writes completed
	// segments to w in offset order and folds them into the whole-file
	// sum (a CRC state chains, it does not commute — offset order is
	// mandatory).
	sum := wire.ChecksumBasis
	st.mu.Lock()
	for st.commit < st.numSegs && st.err == nil {
		sl := st.slot(st.commit)
		if sl.state != slotDone {
			if st.lanes == 0 {
				// Every lane has exited and the next segment is not on the
				// board: nobody is left to fetch it. This is the one place
				// that verdict is reached, after the last lane's exit is
				// visible — lanes dying together cannot each mistake the
				// other for a survivor.
				st.err = fmt.Errorf("dfsc: read %v: %d failover(s) exhausted, no lane left: %w",
					file, st.failovers, st.cause)
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
		c.met.Segments.Inc()
		c.mu.Lock()
		c.stats.Segments++
		c.mu.Unlock()
		_, werr := w.Write(data)
		if werr == nil {
			if idx == 0 {
				c.met.StripeFirstByte.Observe(time.Since(start).Seconds())
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
		st.cond.Broadcast() // idle lanes must see the abort
		cancel()            // and busy ones drop their ranges
	}
	st.mu.Unlock()
	wg.Wait()
	// Every lane has exited: the run is the committer's alone again, and
	// the result holds the last lane's failover and hedge counts.
	err, res := st.err, st.res

	if err != nil {
		root.SetBytes(res.Bytes).SetOutcome("error")
		return res, err
	}
	res.Checksum = sum
	root.SetBytes(res.Bytes).SetOutcome("ok")
	return res, nil
}

// hedgePoll bounds how long an idle lane sleeps between hedge-eligibility
// scans (eligibility is time-based, so nothing broadcasts it).
const hedgePoll = 5 * time.Millisecond

// stripeLane is one lane goroutine: it claims segments off the shared
// board and streams them from its replica until the read completes, the
// run aborts, or its replica dies with the failover budget spent. ln
// mutates as the lane fails over to replacement replicas; lio is the
// lane's own receive state in the run.
func (c *Client) stripeLane(ctx context.Context, st *stripeRun, rs RangeStreamer, file ids.FileID, ln heldLane, lio *laneIO, cfg StripeConfig, root *trace.Span) {
	defer func() {
		ln.release()
		st.mu.Lock()
		st.lanes--
		if st.lanes == 0 {
			st.cond.Broadcast() // the committer decides whether the board is dead
		}
		st.mu.Unlock()
	}()
	for {
		st.mu.Lock()
		idx, hedge, ok := st.claimLocked(ln.out.RM, cfg.HedgeAfter)
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
		lio.w.buf = st.getBufLocked()
		if hedge {
			st.res.Hedges++
			c.met.HedgesFired.Inc()
			c.mu.Lock()
			c.stats.Hedges++
			c.mu.Unlock()
		}
		st.mu.Unlock()

		off, length := st.segRange(idx)
		seg := c.tracer.StartChild(root.Context(), "dfsc.segment").
			SetRM(ln.out.RM).SetFile(file).SetRequest(ln.out.Request).SetOffset(off)
		lio.sum = wire.ChecksumBasis
		n, err := rs.StreamRange(ctx, ln.out.RM, file, ln.out.Request, off, length, &lio.w, &lio.sum)
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
				*sl = stripeSlot{state: slotDone, rm: ln.out.RM, hedged: hedge, data: lio.w.buf}
				if hedge {
					st.res.HedgesWon++
					c.met.HedgesWon.Inc()
					c.mu.Lock()
					c.stats.HedgesWon++
					c.mu.Unlock()
				}
				seg.SetOutcome("ok")
			}
			st.cond.Broadcast()
			st.mu.Unlock()
			seg.End()
			continue
		}
		seg.SetOutcome("failover").End()

		// The lane's replica failed mid-range. Return the segment to the
		// board (unless a hedge already finished it, or this WAS the
		// hedge copy — the original owner still holds it), then try to
		// re-admit the lane on another replica under the shared budget.
		st.mu.Lock()
		st.putBufLocked(lio.w.buf)
		if st.err != nil {
			// The read aborted under this range (the committer cancelled
			// ctx): nothing to requeue, nobody to fail over for.
			st.mu.Unlock()
			return
		}
		if !hedge && idx >= st.commit && st.slot(idx).state == slotInflight {
			st.requeueLocked(idx)
		}
		st.exclude[ln.out.RM] = true
		st.cause = err
		if st.failovers >= cfg.MaxFailovers {
			st.mu.Unlock()
			return
		}
		st.failovers++
		exclude := make(map[ids.RMID]bool, len(st.exclude))
		for rm := range st.exclude {
			exclude[rm] = true
		}
		st.mu.Unlock()

		ln.release()
		c.sleepJittered(cfg.Backoff)
		start := time.Now()
		repl, _ := c.accessLanesCtx(ctx, file, exclude, 1)
		if len(repl) == 0 {
			return
		}
		c.met.Failovers.Inc()
		c.met.LaneFailovers.Inc()
		c.met.FailoverLatency.Observe(time.Since(start).Seconds())
		c.mu.Lock()
		c.stats.Failovers++
		c.mu.Unlock()
		st.mu.Lock()
		st.res.Failovers++
		st.res.RMs = append(st.res.RMs, repl[0].out.RM)
		st.mu.Unlock()
		ln = repl[0]
	}
}

// claimLocked hands the lane its next segment: a requeued range first,
// then the next unassigned one inside the commit window, then — when the
// board is drained and hedging is armed — the oldest lagging in-flight
// range owned by a DIFFERENT replica, as a first-writer-wins hedge copy.
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

// requeueLocked returns a failed lane's in-flight segment to the board,
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
