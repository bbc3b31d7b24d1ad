package dfsc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// rangedStreamer is the stripe-scheduler unit fake: it serves byte
// ranges of a fixed body with per-RM artificial latency and scripted
// mid-range deaths, recording every range call.
type rangedStreamer struct {
	mu    sync.Mutex
	body  []byte
	delay map[ids.RMID]time.Duration // per-RM latency before the range is served
	dead  map[ids.RMID]bool          // RMs that die mid-range on every call
	calls []rangeCall
}

type rangeCall struct {
	rm          ids.RMID
	off, length int64
}

func (s *rangedStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, offset, int64(len(s.body))-offset, w, sum)
}

func (s *rangedStreamer) StreamRange(_ context.Context, rm ids.RMID, _ ids.FileID, _ ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	s.mu.Lock()
	s.calls = append(s.calls, rangeCall{rm: rm, off: offset, length: length})
	d := s.delay[rm]
	dead := s.dead[rm]
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	end := offset + length
	if end > int64(len(s.body)) {
		end = int64(len(s.body))
	}
	seg := s.body[offset:end]
	if dead {
		// Die halfway through the range, bytes already delivered.
		seg = seg[:len(seg)/2]
	}
	n, err := w.Write(seg)
	if err != nil {
		return int64(n), err
	}
	if sum != nil {
		*sum = wire.ChecksumUpdate(*sum, seg)
	}
	if dead {
		return int64(n), io.ErrUnexpectedEOF
	}
	return int64(n), nil
}

// stripeBody pins file 0 to a small deterministic body so segment plans
// are test-sized (the catalog generates streaming-scale files).
func stripeBody(h *harness, n int) []byte {
	h.catalog.File(0).Size = units.Size(n)
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i * 7)
	}
	return body
}

func TestReadStripedOutOfOrderSegmentsChecksum(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 1000)
	// Both lanes pay a per-range delay and one is slower, so segments
	// interleave and complete out of claim order: the committer must
	// still fold the whole-file sum in offset order. (The faster lane's
	// delay also guarantees the slower lane claims work before the file
	// is drained, keeping the two-RM assertion below deterministic.)
	s := &rangedStreamer{body: body, delay: map[ids.RMID]time.Duration{
		1: 10 * time.Millisecond,
		2: 15 * time.Millisecond,
	}}
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 2, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("delivered %d bytes, mismatch with body", got.Len())
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want whole-file %x", res.Checksum, want)
	}
	if res.Bytes != 1000 || res.Failovers != 0 {
		t.Fatalf("res = %+v, want 1000 bytes / 0 failovers", res)
	}
	if len(res.RMs) != 2 {
		t.Fatalf("res.RMs = %v, want both lanes", res.RMs)
	}
	// Segments must tile the file contiguously in offset order.
	var pos int64
	for i, seg := range res.Segments {
		if seg.Offset != pos {
			t.Fatalf("segment %d at offset %d, want %d (contiguous)", i, seg.Offset, pos)
		}
		pos += seg.Length
	}
	if pos != 1000 || len(res.Segments) != 8 {
		t.Fatalf("segments cover %d bytes in %d segments, want 1000 in 8", pos, len(res.Segments))
	}
	// Both replicas actually served ranges (it was a real stripe).
	served := map[ids.RMID]bool{}
	for _, seg := range res.Segments {
		served[seg.RM] = true
	}
	if len(served) != 2 {
		t.Fatalf("all segments served by %v, want both RMs", res.Segments)
	}
	if st := c.Stats(); st.Segments != 8 || st.Hedges != 0 {
		t.Fatalf("stats = %+v, want 8 segments / 0 hedges", st)
	}
}

func TestReadStripedZeroLengthFile(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	stripeBody(h, 0)
	s := &rangedStreamer{}
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 0 || got.Len() != 0 || len(s.calls) != 0 {
		t.Fatalf("zero-length read touched the data plane: res=%+v calls=%v", res, s.calls)
	}
	if res.Checksum != wire.ChecksumBasis {
		t.Fatalf("res.Checksum = %x, want the basis (empty fold)", res.Checksum)
	}
	// No reservation was negotiated for zero bytes.
	if st := c.Stats(); st.Requests != 0 {
		t.Fatalf("stats.Requests = %d, want 0", st.Requests)
	}
}

func TestReadStripedWidthBeyondReplicaCount(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 600)
	s := &rangedStreamer{body: body}
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 5, SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The stripe degraded to the two lanes that exist.
	if len(res.RMs) != 2 {
		t.Fatalf("res.RMs = %v, want width degraded to 2", res.RMs)
	}
	if !bytes.Equal(got.Bytes(), body) || res.Bytes != 600 {
		t.Fatalf("delivered %d bytes (res %d), want the whole 600", got.Len(), res.Bytes)
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want %x", res.Checksum, want)
	}
}

// TestReadStripedRefusalKeepsItsCode: a read that every holder refuses
// fails with an error that is the refusal's code, so a caller tells a QoS
// refusal from a fault with errors.Is; a read nothing can serve carries
// no code.
func TestReadStripedRefusalKeepsItsCode(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.BytesPerSec(1)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Firm)
	s := &rangedStreamer{body: stripeBody(h, 100)}
	if _, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{Width: 1}); !errors.Is(err, ecnp.ErrFirmCapacity) {
		t.Fatalf("read refused on capacity: err = %v, want ecnp.ErrFirmCapacity", err)
	}
	if _, err := c.ReadStriped(s, 1, io.Discard, StripeConfig{Width: 1}); err == nil || ecnp.RefusalOf(err) != 0 {
		t.Fatalf("read of a file with no replica: err = %v, want an error with no refusal code", err)
	}
}

func TestReadStripedAllLanesDieBudgetExhausted(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(300), 2: units.Mbps(200), 3: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2, 3}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 1000)
	// Every replica dies mid-range, so lanes burn the shared failover
	// budget and the read must fail once no lane is left.
	s := &rangedStreamer{body: body, dead: map[ids.RMID]bool{1: true, 2: true, 3: true}}
	res, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{
		Width: 2, SegmentBytes: 250, MaxFailovers: 1, Backoff: time.Microsecond,
	})
	if err == nil {
		t.Fatal("read with every replica dying succeeded")
	}
	if !strings.Contains(err.Error(), "no lane left") {
		t.Fatalf("error does not report lane exhaustion: %v", err)
	}
	if res.Failovers > 1 {
		t.Fatalf("res.Failovers = %d, exceeds MaxFailovers 1", res.Failovers)
	}
	if res.Bytes >= 1000 {
		t.Fatalf("res.Bytes = %d on a failed read, want partial", res.Bytes)
	}
	// Every lane's reservation was released on the way out.
	for id, node := range h.rms {
		if node.Allocated() != 0 {
			t.Fatalf("RM %v still has %v allocated", id, node.Allocated())
		}
	}
}

func TestReadStripedHedgeBeatsSlowLane(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 800)
	// Two segments, two lanes. The slow replica sits on its range long
	// past HedgeAfter; the fast lane goes idle, hedges the lagging range,
	// and its copy must win the first-writer-wins race.
	s := &rangedStreamer{body: body, delay: map[ids.RMID]time.Duration{
		1: 20 * time.Millisecond,
		2: 900 * time.Millisecond,
	}}
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{
		Width: 2, SegmentBytes: 400, HedgeAfter: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("delivered %d bytes, mismatch with body", got.Len())
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want %x", res.Checksum, want)
	}
	if res.Hedges != 1 || res.HedgesWon != 1 {
		t.Fatalf("res = %+v, want exactly one hedge fired and won", res)
	}
	var hedged int
	for _, seg := range res.Segments {
		if seg.Hedged {
			hedged++
			if seg.RM != 1 {
				t.Fatalf("hedged segment committed by %v, want the fast RM 1", seg.RM)
			}
		}
	}
	if hedged != 1 {
		t.Fatalf("segments = %+v, want one hedged", res.Segments)
	}
	if st := c.Stats(); st.Hedges != 1 || st.HedgesWon != 1 {
		t.Fatalf("stats = %+v, want hedge counters 1/1", st)
	}
}

// laneStreamer is the lane fake: it serves ranges of a fixed body, lets
// the first deaths distinct RMs it sees crash once the read reaches byte
// cutAt (a range that crosses it delivers the bytes before it, then
// fails), and counts the calls in flight per RM. The first call on each RM
// is held until a second one is in flight on the same RM — or, with
// spread set, until spread RMs each have one in flight — so a reader that
// keeps that many ranges in flight shows it deterministically, and one
// that does not is reported instead of hanging.
type laneStreamer struct {
	body   []byte
	cutAt  int64
	deaths int
	spread int

	mu       sync.Mutex
	doomed   map[ids.RMID]bool
	inflight map[ids.RMID]int
	peak     map[ids.RMID]int
	paired   map[ids.RMID]chan struct{}
	unpaired []ids.RMID // RMs whose first call was let go by the timeout
	calls    []rangeCall
}

func newLaneStreamer(body []byte, cutAt int64, deaths int) *laneStreamer {
	return &laneStreamer{
		body: body, cutAt: cutAt, deaths: deaths,
		doomed:   make(map[ids.RMID]bool),
		inflight: make(map[ids.RMID]int),
		peak:     make(map[ids.RMID]int),
		paired:   make(map[ids.RMID]chan struct{}),
	}
}

func (s *laneStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, offset, int64(len(s.body))-offset, w, sum)
}

func (s *laneStreamer) StreamRange(_ context.Context, rm ids.RMID, _ ids.FileID, _ ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	s.mu.Lock()
	s.calls = append(s.calls, rangeCall{rm: rm, off: offset, length: length})
	if _, seen := s.doomed[rm]; !seen {
		s.doomed[rm] = len(s.doomed) < s.deaths
	}
	die := s.doomed[rm]
	s.inflight[rm]++
	s.peak[rm] = max(s.peak[rm], s.inflight[rm])
	pair, seen := s.paired[rm]
	if !seen {
		pair = make(chan struct{})
		s.paired[rm] = pair
	}
	s.letGo()
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight[rm]--
		s.mu.Unlock()
	}()
	if !seen {
		select {
		case <-pair:
		case <-time.After(5 * time.Second):
			s.mu.Lock()
			s.unpaired = append(s.unpaired, rm)
			s.mu.Unlock()
		}
	}

	end := min(offset+length, int64(len(s.body)))
	cut := die && end > s.cutAt
	if cut {
		end = max(s.cutAt, offset)
	}
	seg := s.body[offset:end]
	n, err := w.Write(seg)
	if err != nil {
		return int64(n), err
	}
	*sum = wire.ChecksumUpdate(*sum, seg)
	if cut {
		return int64(n), io.ErrUnexpectedEOF
	}
	return int64(n), nil
}

// letGo releases every held first call whose condition now holds. The
// caller holds mu.
func (s *laneStreamer) letGo() {
	busy := 0
	for _, n := range s.inflight {
		if n > 0 {
			busy++
		}
	}
	for rm, pair := range s.paired {
		ready := s.inflight[rm] >= 2
		if s.spread > 0 {
			ready = busy >= s.spread
		}
		if !ready {
			continue
		}
		select {
		case <-pair:
		default:
			close(pair)
		}
	}
}

// offsets lists the offsets asked of rm, in call order.
func (s *laneStreamer) offsets(rm ids.RMID) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var offs []int64
	for _, c := range s.calls {
		if c.rm == rm {
			offs = append(offs, c.off)
		}
	}
	return offs
}

// resvCounter wraps a provider to count the reservations it grants and
// the releases it receives.
type resvCounter struct {
	ecnp.Provider
	opens, closes *atomic.Int32
}

func (p resvCounter) Open(req ecnp.OpenRequest) ecnp.OpenResult {
	res := p.Provider.Open(req)
	if res.OK {
		p.opens.Add(1)
	}
	return res
}

func (p resvCounter) Close(req ids.RequestID) {
	p.closes.Add(1)
	p.Provider.Close(req)
}

// countReservations wraps every provider of h.
func countReservations(h *harness) (opens, closes *atomic.Int32) {
	opens, closes = new(atomic.Int32), new(atomic.Int32)
	for id := range h.rms {
		p, _ := h.dir.Provider(id)
		h.dir.Set(id, resvCounter{Provider: p, opens: opens, closes: closes})
	}
	return opens, closes
}

func failoverBody() []byte {
	body := make([]byte, 100)
	for i := range body {
		body[i] = byte(i)
	}
	return body
}

// assertNoneAllocated fails when any RM of h still holds a reservation.
func assertNoneAllocated(t *testing.T, h *harness) {
	t.Helper()
	for id, node := range h.rms {
		if node.Allocated() != 0 {
			t.Fatalf("RM %v still has %v allocated", id, node.Allocated())
		}
	}
}

// TestReadStripedWidthOneKeepsTwoRangesInFlight: a one-lane read runs two
// fetchers over its one reservation, so exactly two StreamRange calls are
// in flight on its one RM, and the reservation is opened once and
// released once.
func TestReadStripedWidthOneKeepsTwoRangesInFlight(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	opens, closes := countReservations(h)
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 1000)
	s := newLaneStreamer(body, 0, 0)
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 1, SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("delivered %d bytes, mismatch with body", got.Len())
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want %x", res.Checksum, want)
	}
	if len(res.RMs) != 1 || len(s.peak) != 1 {
		t.Fatalf("res.RMs = %v, calls on %d RMs: want one lane on one RM", res.RMs, len(s.peak))
	}
	if peak := s.peak[res.RMs[0]]; peak != oneLaneFetchers || len(s.unpaired) != 0 {
		t.Fatalf("peak %d range calls in flight on %v (unpaired %v), want exactly %d",
			peak, res.RMs[0], s.unpaired, oneLaneFetchers)
	}
	if len(s.calls) != 10 || len(res.Segments) != 10 {
		t.Fatalf("%d range calls, %d segments, want 10 of each", len(s.calls), len(res.Segments))
	}
	if o, cl := opens.Load(), closes.Load(); o != 1 || cl != 1 {
		t.Fatalf("%d reservation(s) opened, %d release(s), want one of each", o, cl)
	}
	assertNoneAllocated(t, h)
}

// TestReadStripedWidthFourStreamsFromFourRMsAtOnce: a four-wide read has a
// range in flight on all four of its RMs at once, so its lanes add up the
// replicas' bandwidth instead of taking turns behind one throttle. Each
// RM's first range is held until all four have one in flight: lanes that
// ran one after another would leave the holds to the timeout.
func TestReadStripedWidthFourStreamsFromFourRMsAtOnce(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(200), 3: units.Mbps(200), 4: units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2, 3, 4}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 1000)
	s := newLaneStreamer(body, 0, 0)
	s.spread = 4
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 4, SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("delivered %d bytes, mismatch with body", got.Len())
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want %x", res.Checksum, want)
	}
	if len(res.RMs) != 4 || len(s.peak) != 4 || len(s.unpaired) != 0 {
		t.Fatalf("res.RMs = %v, calls on %d RMs, first range let go by the timeout on %v: want four RMs streaming at once",
			res.RMs, len(s.peak), s.unpaired)
	}
	assertNoneAllocated(t, h)
}

// TestReadStripedWidthOneFailoverRefetchesSegment: the lane's replica
// dies mid-range with both fetchers on it. Exactly one failover is spent,
// the range the corpse left unfinished is re-fetched whole from the
// replacement, both fetchers finish there, and every reservation is
// released.
func TestReadStripedWidthOneFailoverRefetchesSegment(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18), 3: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2, 3}})
	opens, closes := countReservations(h)
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		ID:        1,
		Mapper:    h.mapper,
		Directory: h.dir,
		Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog:   h.catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(5),
		Metrics:   NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}

	body := failoverBody()
	h.catalog.File(0).Size = units.Size(len(body))
	s := newLaneStreamer(body, 45, 1)
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 1, SegmentBytes: 10, MaxFailovers: 2, Backoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 1 || res.Bytes != 100 {
		t.Fatalf("result = %+v, want 1 failover / 100 bytes", res)
	}
	if len(res.RMs) != 2 || res.RMs[0] == res.RMs[1] {
		t.Fatalf("serving RMs = %v, want two distinct", res.RMs)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("delivered %d bytes, mismatch with body", got.Len())
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want %x", res.Checksum, want)
	}
	dead, repl := res.RMs[0], res.RMs[1]
	// The corpse committed the four ranges before the cut; the range it
	// died in was asked of the replacement from its first byte.
	for _, seg := range res.Segments {
		if want := dead; seg.Offset >= 40 {
			if want = repl; seg.RM != want {
				t.Fatalf("segment at %d served by %v, want %v", seg.Offset, seg.RM, want)
			}
		} else if seg.RM != want {
			t.Fatalf("segment at %d served by %v, want %v", seg.Offset, seg.RM, want)
		}
	}
	if !slices.Contains(s.offsets(dead), 40) || !slices.Contains(s.offsets(repl), 40) {
		t.Fatalf("range 40 asked of %v at %v and of %v at %v, want both", dead, s.offsets(dead), repl, s.offsets(repl))
	}
	// Both fetchers moved to the replacement.
	if s.peak[repl] != oneLaneFetchers || len(s.unpaired) != 0 {
		t.Fatalf("peak %d calls in flight on the replacement (unpaired %v), want %d", s.peak[repl], s.unpaired, oneLaneFetchers)
	}
	if o, cl := opens.Load(), closes.Load(); o != 2 || cl != 2 {
		t.Fatalf("%d reservation(s) opened, %d release(s), want two of each", o, cl)
	}
	assertNoneAllocated(t, h)
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("stats.Failovers = %d, want 1", st.Failovers)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dfsqos_dfsc_failovers_total 1") {
		t.Fatalf("exposition missing failover counter:\n%s", sb.String())
	}
}

// TestReadStripedWidthOneChecksumSpansReplicas: a segment cut short on one
// replica and re-fetched from another still leaves the whole-file sum of
// exactly the body, though the bytes came from two RMs.
func TestReadStripedWidthOneChecksumSpansReplicas(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := failoverBody()
	h.catalog.File(0).Size = units.Size(len(body))
	s := newLaneStreamer(body, 33, 1)
	res, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{Width: 1, SegmentBytes: 10, MaxFailovers: 1, Backoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want whole-body %x", res.Checksum, want)
	}
	served := map[ids.RMID]bool{}
	for _, seg := range res.Segments {
		served[seg.RM] = true
	}
	if len(served) != 2 {
		t.Fatalf("segments = %+v, want bytes from both replicas", res.Segments)
	}
}

// TestReadStripedWidthOneBudgetExhausted: with a budget of 0 the replica's
// death fails the read, the segments committed before it are still
// reported, and the reservation is released rather than leaked.
func TestReadStripedWidthOneBudgetExhausted(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	opens, closes := countReservations(h)
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := failoverBody()
	h.catalog.File(0).Size = units.Size(len(body))
	s := newLaneStreamer(body, 25, 2)
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 1, SegmentBytes: 10, MaxFailovers: 0, Backoff: time.Microsecond})
	if err == nil {
		t.Fatal("exhausted read succeeded")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want it to carry the stream failure", err)
	}
	if res.Failovers != 0 || res.Bytes != 20 || got.Len() != 20 {
		t.Fatalf("result = %+v (%d bytes written), want 0 failovers / the 20 bytes before the cut", res, got.Len())
	}
	if o, cl := opens.Load(), closes.Load(); o != 1 || cl != 1 {
		t.Fatalf("%d reservation(s) opened, %d release(s), want one of each", o, cl)
	}
	assertNoneAllocated(t, h)
}

// TestReadStripedWidthOneNoReplicaLeft: after the only replica dies the
// re-negotiation excludes it and finds nothing, however generous the
// failover budget, and the error says so.
func TestReadStripedWidthOneNoReplicaLeft(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := failoverBody()
	h.catalog.File(0).Size = units.Size(len(body))
	s := newLaneStreamer(body, 10, 1)
	res, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{Width: 1, SegmentBytes: 10, MaxFailovers: 5, Backoff: time.Microsecond})
	if err == nil {
		t.Fatal("read with no surviving replica succeeded")
	}
	if res.Bytes != 10 {
		t.Fatalf("res.Bytes = %d, want 10", res.Bytes)
	}
	if !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("error does not name the empty replica set: %v", err)
	}
	if res.Failovers != 0 || c.Stats().Failovers != 0 {
		t.Fatalf("res.Failovers = %d, stats %d: a failover with no replacement counted", res.Failovers, c.Stats().Failovers)
	}
	assertNoneAllocated(t, h)
}

// glitchStreamer serves ranges of a fixed body, except that its second
// call fails at once (one bad range, not a dead replica). Its first call is
// held until that failure has been re-negotiated into a second reservation,
// and records how many releases had reached the RMs by then.
type glitchStreamer struct {
	body          []byte
	opens, closes *atomic.Int32

	calls          atomic.Int32
	failed         chan struct{}
	closedMidRange atomic.Int32 // -1: the replacement never came
}

var errGlitch = errors.New("one bad range")

func (s *glitchStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, offset, int64(len(s.body))-offset, w, sum)
}

func (s *glitchStreamer) StreamRange(_ context.Context, _ ids.RMID, _ ids.FileID, _ ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	switch s.calls.Add(1) {
	case 1:
		<-s.failed
		deadline := time.Now().Add(5 * time.Second)
		for s.opens.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if s.opens.Load() < 2 {
			s.closedMidRange.Store(-1)
		} else {
			s.closedMidRange.Store(s.closes.Load())
		}
	case 2:
		close(s.failed)
		return 0, errGlitch
	}
	seg := s.body[offset : offset+length]
	n, err := w.Write(seg)
	*sum = wire.ChecksumUpdate(*sum, seg)
	return int64(n), err
}

// TestReadStripedWidthOneReplacedLeaseOutlivesSiblingRange: one fetcher's
// range fails while its sibling's is still streaming on the same
// reservation. The failure is re-negotiated at once, but the old
// reservation is not released until the sibling's range on it has ended,
// so that range never runs outside its reservation's throttle. Each
// reservation is still released exactly once.
func TestReadStripedWidthOneReplacedLeaseOutlivesSiblingRange(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	opens, closes := countReservations(h)
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := failoverBody()
	h.catalog.File(0).Size = units.Size(len(body))
	s := &glitchStreamer{body: body, opens: opens, closes: closes, failed: make(chan struct{})}
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: 1, SegmentBytes: 10, MaxFailovers: 1, Backoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) || res.Failovers != 1 {
		t.Fatalf("delivered %d bytes, %d failover(s): want the body and 1", got.Len(), res.Failovers)
	}
	switch n := s.closedMidRange.Load(); {
	case n < 0:
		t.Fatal("the failed range was never re-negotiated")
	case n != 0:
		t.Fatalf("%d reservation(s) released while the sibling's range was still on one, want 0", n)
	}
	if o, cl := opens.Load(), closes.Load(); o != 2 || cl != 2 {
		t.Fatalf("%d reservation(s) opened, %d release(s), want two of each", o, cl)
	}
	assertNoneAllocated(t, h)
}

// toEOFStreamer serves only to-EOF streams.
type toEOFStreamer struct{}

func (toEOFStreamer) StreamAt(context.Context, ids.RMID, ids.FileID, ids.RequestID, int64, io.Writer, *uint64) (int64, error) {
	return 0, nil
}

// TestReadStripedRefusesUnrangedStreamer: without ranged reads there is no
// engine to fall back to; the read fails before it negotiates anything.
func TestReadStripedRefusesUnrangedStreamer(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	stripeBody(h, 100)
	if _, err := c.ReadStriped(toEOFStreamer{}, 0, io.Discard, StripeConfig{Width: 1}); err == nil {
		t.Fatal("read through a streamer without ranged reads succeeded")
	}
	if st := c.Stats(); st.Requests != 0 {
		t.Fatalf("stats.Requests = %d, want 0", st.Requests)
	}
}

// TestReadStripedSegmentsObservable pins the Stats()/registry blind-spot
// fix: data-plane segment counts must be visible from the client API and
// the exposition, not only inside ReadResult.
func TestReadStripedSegmentsObservable(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		ID:        1,
		Mapper:    h.mapper,
		Directory: h.dir,
		Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog:   h.catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(5),
		Metrics:   NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	body := stripeBody(h, 512)
	s := &rangedStreamer{body: body}
	if _, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{Width: 2, SegmentBytes: 128}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Segments != 4 {
		t.Fatalf("stats.Segments = %d, want 4", st.Segments)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dfsqos_dfsc_segments_total 4",
		"dfsqos_dfsc_stripe_reads_total 1",
		"dfsqos_dfsc_stripe_lanes_total 2",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// releaseGate wraps a provider so that Close — a lane's release on its way
// out — blocks until every expected lane is releasing too.
type releaseGate struct {
	ecnp.Provider
	arrive func()
}

func (g releaseGate) Close(req ids.RequestID) {
	g.arrive()
	g.Provider.Close(req)
}

// TestReadStripedLanesDieTogether is the deterministic form of the hang
// TestReadStripedAllLanesDieBudgetExhausted used to hit once in a few
// hundred runs. Both lanes fail with the budget spent, and each is held
// inside its release until the other has failed as well — so neither can
// have left the lane count before the other decided whether it was the
// last. A scheduler that lets the dying lane make that decision reads "one
// more lane alive" twice, nobody declares the read dead, and the committer
// waits forever.
func TestReadStripedLanesDieTogether(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	var dying sync.WaitGroup
	dying.Add(2)
	for id := range h.rms {
		p, _ := h.dir.Provider(id)
		h.dir.Set(id, releaseGate{Provider: p, arrive: func() {
			dying.Done()
			dying.Wait()
		}})
	}
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 1000)
	s := &rangedStreamer{body: body, dead: map[ids.RMID]bool{1: true, 2: true}}

	errc := make(chan error, 1)
	go func() {
		_, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{Width: 2, SegmentBytes: 250})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "no lane left") {
			t.Fatalf("err = %v, want the lane-exhaustion error", err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want it to carry the lanes' stream failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReadStriped hung after both lanes died together")
	}
	for id, node := range h.rms {
		if node.Allocated() != 0 {
			t.Fatalf("RM %v still has %v allocated", id, node.Allocated())
		}
	}
}

// quietStreamer serves ranges of a fixed body and records nothing, so the
// only allocations of a read over it are the scheduler's and the
// negotiation's.
type quietStreamer struct{ body []byte }

func (s quietStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, offset, int64(len(s.body))-offset, w, sum)
}

func (s quietStreamer) StreamRange(_ context.Context, _ ids.RMID, _ ids.FileID, _ ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	seg := s.body[offset:min(offset+length, int64(len(s.body)))]
	n, err := w.Write(seg)
	*sum = wire.ChecksumUpdate(*sum, seg)
	return int64(n), err
}

// TestReadStripedSegmentPathDoesNotAllocate keeps the segment path at zero
// allocations in steady state: a warm read of 256 segments may cost no
// more than a warm read of 8 plus a little slack (the result's Segments
// slice is one allocation at either size; the slack absorbs a pooled run
// the GC or the race detector's pool happened to drop). Any per-segment
// buffer, board entry or writer coming back would show as hundreds.
func TestReadStripedSegmentPathDoesNotAllocate(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	const segBytes = 64
	allocs := func(segs int) float64 {
		s := quietStreamer{body: stripeBody(h, segs*segBytes)}
		want := wire.ChecksumUpdate(wire.ChecksumBasis, s.body)
		return testing.AllocsPerRun(20, func() {
			res, err := c.ReadStriped(s, 0, io.Discard, StripeConfig{Width: 2, SegmentBytes: segBytes})
			if err != nil || res.Checksum != want || len(res.Segments) != segs {
				t.Fatalf("read of %d segments: %d committed, checksum %x (want %x), err %v",
					segs, len(res.Segments), res.Checksum, want, err)
			}
		})
	}
	small, large := allocs(8), allocs(256)
	t.Logf("allocations per warm read: %.0f at 8 segments, %.0f at 256", small, large)
	if large > small+16 {
		t.Fatalf("a 256-segment read allocates %.0f, an 8-segment read %.0f: the segment path allocates per segment again", large, small)
	}
}

// inPlaceStreamer serves ranges of a fixed body the way the live client
// receives them into a writer that offers AvailableBuffer: a piece at a
// time, each received into the writer's spare capacity and then passed to
// Write. It counts the Writes that were not of bytes already in place —
// the ones segWriter has to copy.
type inPlaceStreamer struct {
	body   []byte
	piece  int
	copied atomic.Int64
}

func (s *inPlaceStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, offset, int64(len(s.body))-offset, w, sum)
}

func (s *inPlaceStreamer) StreamRange(_ context.Context, _ ids.RMID, _ ids.FileID, _ ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	sw, ok := w.(*segWriter)
	if !ok {
		return 0, errors.New("the range writer is not a segment writer")
	}
	seg := s.body[offset:min(offset+length, int64(len(s.body)))]
	var n int64
	for len(seg) > 0 {
		p := sw.AvailableBuffer()
		p = append(p, seg[:min(s.piece, len(seg))]...) // the receive
		if !sw.inPlace(p) {
			s.copied.Add(1)
		}
		if _, err := sw.Write(p); err != nil {
			return n, err
		}
		*sum = wire.ChecksumUpdate(*sum, p)
		n += int64(len(p))
		seg = seg[len(p):]
	}
	return n, nil
}

// TestReadStripedReceivesInPlace: a streamer that receives each piece of
// a range into the segment writer's AvailableBuffer and passes it to Write
// has nothing copied — every Write is of bytes already at the buffer's
// tail — at either width and through the ramp, and the read still
// delivers and verifies every byte. A Write of bytes from elsewhere is
// still copied, and one past the segment is still refused.
func TestReadStripedReceivesInPlace(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	body := stripeBody(h, 300<<10+17)
	want := wire.ChecksumUpdate(wire.ChecksumBasis, body)
	for _, width := range []int{1, 2} {
		s := &inPlaceStreamer{body: body, piece: 5000}
		var got bytes.Buffer
		res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: width, SegmentBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), body) || res.Checksum != want {
			t.Fatalf("width %d: delivered %d bytes, checksum %x, want the %d-byte body and %x", width, got.Len(), res.Checksum, len(body), want)
		}
		if n := s.copied.Load(); n != 0 {
			t.Fatalf("width %d: %d writes received through AvailableBuffer were copied", width, n)
		}
	}

	w := segWriter{buf: make([]byte, 0, 8)}
	foreign := []byte("abc")
	if w.inPlace(foreign) {
		t.Fatal("bytes from another buffer count as in place")
	}
	if _, err := w.Write(foreign); err != nil || string(w.buf) != "abc" {
		t.Fatalf("copying Write: buf %q, err %v", w.buf, err)
	}
	if _, err := w.Write(append(w.AvailableBuffer(), "defg"...)); err != nil || string(w.buf) != "abcdefg" {
		t.Fatalf("in-place Write: buf %q, err %v", w.buf, err)
	}
	if _, err := w.Write([]byte("hi")); err == nil {
		t.Fatalf("a write past the segment was accepted: buf %q", w.buf)
	}
}

// TestReadStripedRequestsRampedRanges watches the ranges a read actually
// asks its replicas for: the first Width of them are firstSegmentBytes —
// that is all byte 0 waits for — they double per round up to SegmentBytes,
// and the read still delivers and verifies every byte.
func TestReadStripedRequestsRampedRanges(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	const size, segBytes, width = 1<<20 + 123, 256 << 10, 2
	body := stripeBody(h, size)
	s := &rangedStreamer{body: body}
	var got bytes.Buffer
	res, err := c.ReadStriped(s, 0, &got, StripeConfig{Width: width, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("delivered %d bytes, mismatch with body", got.Len())
	}
	if want := wire.ChecksumUpdate(wire.ChecksumBasis, body); res.Checksum != want {
		t.Fatalf("res.Checksum = %x, want whole-file %x", res.Checksum, want)
	}
	sort.Slice(s.calls, func(i, j int) bool { return s.calls[i].off < s.calls[j].off })
	want := referenceLayout(0, size, segBytes, width)
	if len(s.calls) != len(want) || len(res.Segments) != len(want) {
		t.Fatalf("%d range calls, %d segments committed, want %d of each", len(s.calls), len(res.Segments), len(want))
	}
	for i, call := range s.calls {
		if call.off != want[i].off || call.length != want[i].length {
			t.Fatalf("range %d requested [%d,+%d), want [%d,+%d)", i, call.off, call.length, want[i].off, want[i].length)
		}
	}
	// 2 × 32 KiB, 2 × 64 KiB, 2 × 128 KiB, then 256 KiB to EOF.
	for i, length := range []int64{32 << 10, 32 << 10, 64 << 10, 64 << 10, 128 << 10, 128 << 10, 256 << 10} {
		if s.calls[i].length != length {
			t.Fatalf("range %d is %d bytes, want %d", i, s.calls[i].length, length)
		}
	}
}

// stuckStreamer serves the range at offset 0 and parks every other one
// until its context ends — a replica far behind its throttle.
type stuckStreamer struct{ body []byte }

func (s stuckStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, offset, int64(len(s.body))-offset, w, sum)
}

func (s stuckStreamer) StreamRange(ctx context.Context, _ ids.RMID, _ ids.FileID, _ ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	if offset != 0 {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	seg := s.body[:length]
	n, err := w.Write(seg)
	*sum = wire.ChecksumUpdate(*sum, seg)
	return int64(n), err
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestReadStripedAbortStopsLanes: when the caller's writer fails, the read
// must stop its in-flight ranges rather than wait for each to finish while
// holding the lanes' reservations.
func TestReadStripedAbortStopsLanes(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	s := stuckStreamer{body: stripeBody(h, 1000)}
	errDisk := errors.New("disk full")

	errc := make(chan error, 1)
	go func() {
		_, err := c.ReadStriped(s, 0, failingWriter{errDisk}, StripeConfig{Width: 2, SegmentBytes: 100, MaxFailovers: 2})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, errDisk) {
			t.Fatalf("err = %v, want the writer's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadStriped is still waiting for its in-flight ranges 5 s after the writer failed")
	}
	for id, node := range h.rms {
		if node.Allocated() != 0 {
			t.Fatalf("RM %v still has %v allocated", id, node.Allocated())
		}
	}
	if st := c.Stats(); st.Failovers != 0 {
		t.Fatalf("stats.Failovers = %d: an aborted read re-negotiated a lane", st.Failovers)
	}
}
