package live

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestLiveRangedReadOverTCP drives the ranged ReadFile frame end to end:
// a bounded range must deliver exactly the requested window with a
// verified range checksum, and a range reaching past EOF must clamp.
func TestLiveRangedReadOverTCP(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(800)},
		map[ids.FileID][]ids.RMID{0: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	rmCli, ok := lc.dir.RMClient(1)
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
	n, err = lc.dir.StreamRange(context.Background(), 1, 0, 0, size-1024, 1<<20, &tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1024 || !bytes.Equal(tail.Bytes(), whole.Bytes()[size-1024:]) {
		t.Fatalf("clamped range delivered %d bytes, want the 1024-byte tail", n)
	}
}

// TestLiveOverlongRangeClampsAtEOF sends the range a hostile or merely
// careless peer can: Offset 1 with the largest Length the 36-byte ReadFile
// body holds, whose sum overflows int64. The client's ReadRange would trip
// on that sum itself, so the frame is written raw. The server must clamp
// at EOF as for any range reaching past it — every byte but the first,
// under a range checksum that verifies — and not answer a FileEnd with a
// negative size.
func TestLiveOverlongRangeClampsAtEOF(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(800)},
		map[ids.FileID][]ids.RMID{0: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	rmCli, ok := lc.dir.RMClient(1)
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
	err = rmCli.stream(func(wc *wire.Conn) error {
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
			if end, ok = msg.Payload.(wire.FileEnd); !ok {
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
}

// TestLiveStripedReadOverTCP runs the K-wide scheduler against three real
// RM servers: three lanes admitted by one negotiation, byte ranges striped
// across all replicas, and the committed stream bit-identical to the disk
// copy under the whole-file checksum.
func TestLiveStripedReadOverTCP(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(400), units.Mbps(400), units.Mbps(400)},
		map[ids.FileID][]ids.RMID{0: {1, 2, 3}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.mmCli,
		Directory: lc.dir,
		Scheduler: lc.sched,
		Catalog:   lc.cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(lc.cat.File(0).Size)
	var got bytes.Buffer
	res, err := client.ReadStriped(lc.dir, 0, &got, dfsc.StripeConfig{
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
	want, err := diskOf(t, lc, 0).Checksum(FileName(0))
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
	for i, srv := range lc.rmSrvs {
		if got := srv.Node().Allocated(); got != 0 {
			t.Fatalf("RM %d still has %v allocated", i+1, got)
		}
	}
}

// TestChaosKillMidStripeLaneDegrades is the striped crash drill: a
// scripted fault kills the first-ranked lane's RM after its first streamed
// chunk. With no failover budget the stripe must degrade to K-1 lanes,
// re-assign the dead lane's range, and still deliver every byte — zero
// dirty bytes under the whole-file checksum — while the corpse's orphaned
// reservation is reclaimed by one lease sweep.
func TestChaosKillMidStripeLaneDegrades(t *testing.T) {
	lc := startChaosCluster(t, chaosOpts{
		// RemOnly ranks by remaining bandwidth, so the doomed big RM is
		// deterministically the first lane of the stripe.
		caps:        []units.BytesPerSec{units.Mbps(300), units.Mbps(200), units.Mbps(100)},
		holders:     map[ids.FileID][]ids.RMID{0: {1, 2, 3}},
		rmFaults:    map[ids.RMID]string{1: "rm.stream.chunk:after=1:action=kill"},
		leaseTTLSec: 5,
	})
	defer lc.shutdown()
	client := lc.client(t, qos.Firm)

	var got bytes.Buffer
	res, err := client.ReadStriped(lc.dir, 0, &got, dfsc.StripeConfig{
		Width:        3,
		SegmentBytes: 256 << 10,
		MaxFailovers: 0,
		Backoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("striped read with lane kill: %v", err)
	}
	size := int64(lc.cat.File(0).Size)
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
	want, err := lc.disks[2].Checksum(FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != want {
		t.Fatalf("striped checksum %x, replica copy %x", res.Checksum, want)
	}
	if sum := wire.ChecksumUpdate(wire.ChecksumBasis, got.Bytes()); sum != want {
		t.Fatalf("delivered bytes checksum %x, replica %x", sum, want)
	}
	// The dead lane's partial range was discarded, not committed: every
	// committed segment came from a survivor.
	for _, seg := range res.Segments {
		if seg.RM == 1 {
			t.Fatalf("segment %+v committed from the killed RM", seg)
		}
	}

	// The kill arrived between Open and Close: RM 1's lane reservation is
	// orphaned with its bandwidth allocated until the lease sweep.
	if n := lc.nodes[1].ActiveReservations(); n != 1 {
		t.Fatalf("orphaned reservations on RM1 = %d, want 1", n)
	}
	if n := lc.nodes[1].SweepLeases(lc.sched.Now().Add(6)); n != 1 {
		t.Fatalf("sweep reclaimed %d, want 1", n)
	}
	// The survivors' reservations were released by the normal close path.
	for _, id := range []ids.RMID{2, 3} {
		if got := lc.nodes[id].Allocated(); got != 0 {
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
