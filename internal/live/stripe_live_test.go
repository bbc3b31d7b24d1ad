package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/testenv"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestLiveRangedReadOverTCP drives the ranged ReadFile frame end to end:
// a bounded range must deliver exactly the requested window with a
// verified range checksum, and a range reaching past EOF must clamp.
func TestLiveRangedReadOverTCP(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(800)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	rmCli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 unreachable")
	}
	var whole bytes.Buffer
	size, err := readWhole(rmCli, 0, &whole)
	if err != nil {
		t.Fatal(err)
	}
	if size < 4096 {
		t.Fatalf("file 0 is only %d bytes; range test needs a real window", size)
	}

	// A mid-file window: exact bytes, server-verified range checksum.
	offset, length := size/4, size/2
	var part bytes.Buffer
	sum := wire.ChecksumBasis
	n, err := rmCli.ReadRange(context.Background(), 0, 0, offset, length, &part, &sum)
	if err != nil {
		t.Fatal(err)
	}
	if n != length {
		t.Fatalf("range delivered %d bytes, want %d", n, length)
	}
	want := whole.Bytes()[offset : offset+length]
	if !bytes.Equal(part.Bytes(), want) {
		t.Fatal("range bytes differ from the same window of the whole file")
	}
	if sum != wire.ChecksumUpdate(wire.ChecksumBasis, want) {
		t.Fatalf("range checksum %x does not match the window", sum)
	}

	// A range reaching past EOF clamps to the file end.
	var tail bytes.Buffer
	n, err = lc.Dir.StreamRange(context.Background(), 1, 0, 0, size-1024, 1<<20, &tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1024 || !bytes.Equal(tail.Bytes(), whole.Bytes()[size-1024:]) {
		t.Fatalf("clamped range delivered %d bytes, want the 1024-byte tail", n)
	}
}

// TestLiveOverlongRangeClampsAtEOF sends the range a hostile or merely
// careless peer can: Offset 1 with the largest Length the 36-byte ReadFile
// body holds, whose sum overflows int64. First the frame is written raw,
// so the server is seen on its own: it must clamp at EOF as for any range
// reaching past it — every byte but the first, under a range checksum
// that verifies — and not answer a FileEnd with a negative size. Then the
// client's ReadRange asks for the same range with a verified sum: its own
// overrun check must not trip on the sum either.
func TestLiveOverlongRangeClampsAtEOF(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(800)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	rmCli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 unreachable")
	}
	var whole bytes.Buffer
	size, err := readWhole(rmCli, 0, &whole)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var end wire.FileEnd
	err = rmCli.stream(context.Background(), func(wc *wire.Conn) error {
		if err := wc.Write(wire.KindReadFile, wire.ReadFile{File: 0, ChunkSize: 64 * 1024, Offset: 1, Length: math.MaxInt64}); err != nil {
			return err
		}
		for {
			msg, err := wc.Read()
			if err != nil {
				return err
			}
			if ch, ok := msg.Chunk(); ok {
				got.Write(ch.Data)
				msg.Release()
				continue
			}
			if end, ok = msg.FileEnd(); !ok {
				return fmt.Errorf("stream ended with %v %#v", msg.Kind, msg.Payload)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Bytes()[1:]
	if end.Size != size || int64(got.Len()) != size-1 {
		t.Fatalf("over-long range from offset 1 delivered %d bytes and ended at %d, want %d and %d", got.Len(), end.Size, size-1, size)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("range bytes differ from the file behind its first byte")
	}
	if end.Checksum != wire.ChecksumUpdate(wire.ChecksumBasis, want) {
		t.Fatalf("range checksum %x does not verify the delivered bytes", end.Checksum)
	}

	got.Reset()
	sum := wire.ChecksumBasis
	n, err := rmCli.ReadRange(context.Background(), 0, 0, 1, math.MaxInt64, &got, &sum)
	if err != nil {
		t.Fatalf("ReadRange of the over-long range: %v", err)
	}
	if n != size-1 || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("ReadRange of the over-long range delivered %d bytes, want the %d behind the first", n, size-1)
	}
}

// cancelOnWrite accepts bytes and ends its context at the first of them.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (w cancelOnWrite) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}

// TestLiveReadRangeStopsWhenContextEnds: a read whose context ends
// mid-stream stops between chunks with the context's error and gives its
// connection up, and — the caller quit, the RM did not fail — leaves the
// client unbroken, so the next read needs no re-resolution.
func TestLiveReadRangeStopsWhenContextEnds(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(800)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	rmCli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 unreachable")
	}
	var whole bytes.Buffer
	size, err := readWhole(rmCli, 0, &whole)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, err := rmCli.ReadRange(ctx, 0, 0, 0, 0, cancelOnWrite{cancel}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after the context ended, want context.Canceled", err)
	}
	if n <= 0 || n > 128<<10 {
		t.Fatalf("read went on for %d of %d bytes after its first chunk cancelled it", n, size)
	}
	if rmCli.Broken() {
		t.Fatal("the caller's own cancellation marked the RM broken")
	}
	var again bytes.Buffer
	if _, err := readWhole(rmCli, 0, &again); err != nil {
		t.Fatalf("read after a cancelled one: %v", err)
	}
	if !bytes.Equal(again.Bytes(), whole.Bytes()) {
		t.Fatal("read after a cancelled one delivered different bytes")
	}
}

// TestLiveStripedReadOverTCP runs the K-wide scheduler against three real
// RM servers: three lanes admitted by one negotiation, byte ranges striped
// across all replicas, and the committed stream bit-identical to the disk
// copy under the whole-file checksum. Each lane's first range waits until
// all three have asked for one: the file is under a megabyte, which one
// lane can drain before a starved sibling's goroutine first runs.
func TestLiveStripedReadOverTCP(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(400), units.Mbps(400), units.Mbps(400)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2, 3}},
	})

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(lc.Catalog.File(0).Size)
	var got bytes.Buffer
	res, err := client.ReadStriped(&bothLanesStart{Directory: lc.Dir, lanes: 3}, 0, &got, dfsc.StripeConfig{
		Width:        3,
		SegmentBytes: size / 6,
	})
	if err != nil {
		t.Fatalf("striped read: %v", err)
	}
	if res.Bytes != size || int64(got.Len()) != size {
		t.Fatalf("delivered %d/%d bytes (result %d)", got.Len(), size, res.Bytes)
	}
	if len(res.RMs) != 3 {
		t.Fatalf("admitted lanes on %v, want all three RMs", res.RMs)
	}
	want, err := lc.Disk(1).Checksum(FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != want {
		t.Fatalf("striped checksum %x, disk copy %x", res.Checksum, want)
	}
	// Segments tile the file contiguously and more than one replica served.
	var pos int64
	served := map[ids.RMID]bool{}
	for i, seg := range res.Segments {
		if seg.Offset != pos {
			t.Fatalf("segment %d at offset %d, want %d", i, seg.Offset, pos)
		}
		pos += seg.Length
		served[seg.RM] = true
	}
	if pos != size {
		t.Fatalf("segments cover %d bytes, want %d", pos, size)
	}
	if len(served) < 2 {
		t.Fatalf("all segments served by %v; the stripe never spread", res.Segments)
	}
	// Every lane's reservation was released on the normal close path.
	for id := ids.RMID(1); id <= 3; id++ {
		if got := lc.Node(id).Allocated(); got != 0 {
			t.Fatalf("RM %d still has %v allocated", id, got)
		}
	}
}

// TestChaosKillMidStripeLaneDegrades is the striped crash drill: a
// scripted fault kills the first-ranked lane's RM halfway through a range.
// With no failover budget the stripe must degrade to K-1 lanes, re-assign
// the dead lane's range, and still deliver every byte — zero dirty bytes
// under the whole-file checksum, none of the half-delivered range among
// them — while the corpse's orphaned reservation is reclaimed by one lease
// sweep.
func TestChaosKillMidStripeLaneDegrades(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		// RemOnly ranks by remaining bandwidth, so the doomed big RM is
		// deterministically the first lane of the stripe.
		Caps:    []units.BytesPerSec{units.Mbps(300), units.Mbps(200), units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2, 3}},
		RM:      leaseTTL(5),
	}, nil)
	client := lc.client(t, qos.Firm)
	size := int64(lc.Catalog.File(0).Size)

	// A kill counted in chunks would land between two verified ranges: a
	// read's opening ranges (3 lanes × 32, 64, 128 KiB) are one 128 KiB
	// chunk or less. From there on every range is two chunks, so the kill is
	// armed on the second chunk of each of them and fires inside the first
	// full-size range RM 1 serves, one chunk delivered and one not.
	const segBytes, chunkBytes = 256 << 10, 128 << 10
	rampEnd := int64(3 * (32 + 64 + 128) << 10)
	script := faults.NewScript(1)
	script.SetMetrics(faults.NewMetrics(lc.reg))
	var armed []int64
	for off := rampEnd + chunkBytes; off < size; off += segBytes {
		script.Add(faults.Rule{Point: faults.PointRMChunk, Match: strconv.FormatInt(off, 10), Action: faults.Kill})
		armed = append(armed, off)
	}
	// Rules match a chunk's decimal offset by substring: no other chunk
	// offset a read can ask for (all are multiples of 32 KiB) may contain one.
	for m := int64(0); m < size; m += 32 << 10 {
		for _, off := range armed {
			if m != off && strings.Contains(strconv.FormatInt(m, 10), strconv.FormatInt(off, 10)) {
				t.Fatalf("kill armed at %d would also fire at %d", off, m)
			}
		}
	}
	lc.Server(1).SetFaults(script)
	// Left to the scheduler, RM 2 and RM 3 can claim every full-size range
	// before RM 1's lane comes back for one. Holding each of their
	// full-size ranges back at its first chunk leaves RM 1 one to claim.
	slow := faults.NewScript(1)
	for off := rampEnd; off < size; off += segBytes {
		slow.Add(faults.Rule{Point: faults.PointRMChunk, Match: strconv.FormatInt(off, 10), Action: faults.Delay, Delay: 50 * time.Millisecond})
	}
	lc.Server(2).SetFaults(slow)
	lc.Server(3).SetFaults(slow)

	var got bytes.Buffer
	res, err := client.ReadStriped(lc.Dir, 0, &got, dfsc.StripeConfig{
		Width:        3,
		SegmentBytes: segBytes,
		MaxFailovers: 0,
		Backoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("striped read with lane kill: %v", err)
	}
	if res.Bytes != size || int64(got.Len()) != size {
		t.Fatalf("delivered %d/%d bytes (result %d)", got.Len(), size, res.Bytes)
	}
	if len(res.RMs) != 3 || res.RMs[0] != 1 {
		t.Fatalf("lanes admitted on %v, want RM1 first of three", res.RMs)
	}
	if res.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0 (no budget: pure K-1 degradation)", res.Failovers)
	}
	// Zero dirty bytes: the delivered stream is bit-identical to a
	// surviving replica's copy.
	want, err := lc.Disk(2).Checksum(FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != want {
		t.Fatalf("striped checksum %x, replica copy %x", res.Checksum, want)
	}
	if sum := wire.ChecksumUpdate(wire.ChecksumBasis, got.Bytes()); sum != want {
		t.Fatalf("delivered bytes checksum %x, replica %x", sum, want)
	}
	survivor, ok := lc.Dir.RMClient(2)
	if !ok {
		t.Fatal("RM 2 unreachable")
	}
	var replica bytes.Buffer
	if _, err := readWhole(survivor, 0, &replica); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), replica.Bytes()) {
		t.Fatal("delivered bytes differ from the surviving replica's copy")
	}
	// The kill fired once, inside a range: RM 1 had sent that range's first
	// chunk and not its second. The half-delivered range was discarded and
	// re-fetched from a survivor, and RM 1 — one range in flight at a time,
	// claimed in offset order — committed nothing at or beyond it.
	killedAt := int64(-1)
	for i, off := range armed {
		if n := script.Fired(i); n > 1 || (n == 1 && killedAt >= 0) {
			t.Fatalf("kill fired more than once (rule %d at %d: %d)", i, off, n)
		} else if n == 1 {
			killedAt = off
		}
	}
	if killedAt < 0 {
		t.Fatalf("no kill fired: RM 1 never served a full-size range (segments %+v)", res.Segments)
	}
	rangeStart, tiled := killedAt-chunkBytes, false
	for _, seg := range res.Segments {
		tiled = tiled || seg.Offset == rangeStart
		if seg.RM == 1 && seg.Offset >= rangeStart {
			t.Fatalf("segment %+v committed from RM 1, killed at %d inside the range starting at %d", seg, killedAt, rangeStart)
		}
	}
	if !tiled {
		t.Fatalf("no segment starts at %d: the kill at %d was not one chunk into a range (segments %+v)", rangeStart, killedAt, res.Segments)
	}

	// The kill arrived between Open and Close: RM 1's lane reservation is
	// orphaned with its bandwidth allocated until the lease sweep.
	if n := lc.Node(1).ActiveReservations(); n != 1 {
		t.Fatalf("orphaned reservations on RM1 = %d, want 1", n)
	}
	if n := lc.Node(1).SweepLeases(lc.Sched.Now().Add(6)); n != 1 {
		t.Fatalf("sweep reclaimed %d, want 1", n)
	}
	// The survivors' reservations were released by the normal close path.
	for _, id := range []ids.RMID{2, 3} {
		if got := lc.Node(id).Allocated(); got != 0 {
			t.Fatalf("RM%d still has %v allocated", id, got)
		}
	}

	// The shared registry saw the incident end to end.
	text := lc.exposition(t)
	for _, want := range []string{
		`action="kill"`,
		`dfsqos_dfsc_stripe_reads_total 1`,
		`dfsqos_dfsc_stripe_lanes_total 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestLiveRangedReadAllocations pins what one ranged ReadRange costs in
// allocations, client and server together (both run in this process): a
// striped read makes one such call per segment, so the FileEnd that ends
// each range must decode into a pooled struct rather than a fresh box.
// It holds for a sink that copies each chunk out of the frame buffer and
// for one whose spare capacity the chunks are received into.
func TestLiveRangedReadAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(800)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	rmCli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 unreachable")
	}
	const length = 32 << 10
	var seg bytes.Buffer
	seg.Grow(length)
	for _, sink := range []struct {
		name string
		w    io.Writer
	}{{"io.Discard", io.Discard}, {"a buffer with AvailableBuffer", &seg}} {
		read := func() {
			seg.Reset()
			sum := wire.ChecksumBasis
			if n, err := rmCli.ReadRange(context.Background(), 0, 0, 0, length, sink.w, &sum); err != nil || n != length {
				t.Fatalf("%s: range read %d bytes, err %v", sink.name, n, err)
			}
		}
		read() // dial and warm the pools
		allocs := testing.AllocsPerRun(200, read)
		t.Logf("%s: %.2f allocations per ranged read", sink.name, allocs)
		if allocs > 0 {
			t.Fatalf("%s: a ranged read allocates %.2f times, want 0", sink.name, allocs)
		}
	}
}
