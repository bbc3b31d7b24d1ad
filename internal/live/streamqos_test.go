package live

import (
	"context"
	"io"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestLiveStreamQoSFlatVersusConserving: one reservation alone on an idle
// disk reads a whole file that its one-second burst covers all but a tenth
// of. Under the flat tree (rmd -stream-qos -stream-ceil 0) it borrows
// nothing and waits at its floor for that tenth; under the work-conserving
// tree (-stream-ceil 1) it borrows the idle headroom.
// The verdict is the disk controller's counters, not a throughput.
func TestLiveStreamQoSFlatVersusConserving(t *testing.T) {
	for _, mode := range []struct {
		name       string
		ceilFrac   float64
		wantBorrow bool
	}{{"flat", 0, false}, {"conserving", 1, true}} {
		t.Run(mode.name, func(t *testing.T) {
			lc := startLiveCluster(t, LocalSpec{
				Caps:    []units.BytesPerSec{units.Mbps(800)},
				Holders: map[ids.FileID][]ids.RMID{0: {1}},
				RM:      RMSpec{StreamQoS: true, StreamCeil: mode.ceilFrac},
			})
			srv := lc.Server(1)
			cli, ok := lc.Dir.RMClient(1)
			if !ok {
				t.Fatal("RM1 unreachable")
			}
			size := int64(lc.Catalog.File(0).Size)
			floor := units.BytesPerSec(float64(size) / 1.1)
			if res := cli.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: floor, DurationSec: 300}); !res.OK {
				t.Fatalf("open refused: %s", res.Reason)
			}
			if n, err := cli.ReadRange(context.Background(), 0, 1, 0, 0, io.Discard, nil); err != nil || n != size {
				t.Fatalf("read %d of %d bytes, err %v", n, size, err)
			}
			st := srv.disk.Controller().Stats()
			if borrowed := st.Borrows > 0; borrowed != mode.wantBorrow {
				t.Fatalf("the lone stream borrowed = %v, want %v: %+v", borrowed, mode.wantBorrow, st)
			}
			if !mode.wantBorrow && st.ThrottleWaitSec == 0 {
				t.Fatalf("the lone stream was never paced at its floor: %+v", st)
			}
			cli.Close(1)
		})
	}
}

// TestChaosLeaseReclaimRemovesStreamQoSGroup proves the work-conserving
// tree heals after a mid-stream lane death: with stream QoS on, a client
// whose connection is torn mid-stream (scripted drop after one chunk)
// leaves an orphaned reservation AND an orphaned blkio group holding its
// assured floor. The lease sweeper must reclaim both — bandwidth back to
// the ledger, group out of the tree — while a surviving sibling keeps its
// lease, its group, and afterwards borrows the freed headroom.
func TestChaosLeaseReclaimRemovesStreamQoSGroup(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
		RM:      RMSpec{LeaseTTL: leaseTTL, StreamQoS: true, StreamCeil: 1},
		Faults: map[ids.RMID]string{
			// Second streamed chunk overall: drop the connection, once.
			1: "rm.stream.chunk:after=1:count=1:action=drop",
		},
	})
	srv := lc.Server(1)
	ctrl := lc.Disk(1).Controller()

	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.Catalog.File(0)
	for req := ids.RequestID(1); req <= 2; req++ {
		res := cli.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec})
		if !res.OK {
			t.Fatalf("open %v refused: %s", req, res.Reason)
		}
		if srv.qosGroup(req) == nil {
			t.Fatalf("admission of %v installed no stream QoS group", req)
		}
	}

	// Request 2's stream dies mid-flight: the scripted drop tears the
	// connection after the first chunk, so the client sees a transport
	// error and never sends Close.
	if _, err := cli.ReadRange(context.Background(), 0, 2, 0, 0, io.Discard, nil); err == nil {
		t.Fatal("dropped stream completed cleanly")
	}
	if n := lc.Node(1).ActiveReservations(); n != 2 {
		t.Fatalf("reservations after lane death = %d, want 2 (orphan + survivor)", n)
	}

	// The survivor renews while the orphan's lease goes stale: the
	// sweeper must reclaim exactly the orphan.
	waitFor(t, "the orphan reclaimed", func() bool {
		if err := cli.Keepalive(1); err != nil {
			t.Fatalf("survivor keepalive: %v", err)
		}
		return lc.Node(1).ActiveReservations() == 1
	})
	if n := lc.Node(1).Stats().LeaseExpiries; n != 1 {
		t.Fatalf("sweeper reclaimed %d, want 1", n)
	}
	if g := srv.qosGroup(2); g != nil {
		t.Fatal("orphan's blkio group survived the lease sweep")
	}
	if srv.qosGroup(1) == nil {
		t.Fatal("survivor's blkio group was reclaimed with the orphan's")
	}
	if ctrl.RemoveGroup("req2") {
		t.Fatal("orphan's group still present in the controller tree")
	}
	if got := lc.Node(1).Allocated(); got != meta.Bitrate {
		t.Fatalf("allocated %v after sweep, want one bitrate %v", got, meta.Bitrate)
	}

	// The survivor streams clean — and now borrows the reclaimed headroom:
	// its assured rate is one catalog bitrate, far under the 100 Mbit/s
	// root, so a full-speed read must ride borrowed tokens.
	sum := wire.ChecksumBasis
	n, err := cli.ReadRange(context.Background(), 0, 1, 0, 0, io.Discard, &sum)
	if err != nil {
		t.Fatalf("survivor stream after sweep: %v", err)
	}
	if n != int64(meta.Size) {
		t.Fatalf("survivor streamed %d bytes, want %d", n, int64(meta.Size))
	}
	if st := ctrl.Stats(); st.Borrows == 0 || st.BorrowedBytes == 0 {
		t.Fatalf("survivor never borrowed freed headroom: %+v", st)
	}
	cli.Close(1)
}
