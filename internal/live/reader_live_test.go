package live

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/units"
)

// openRead opens file 0 on a fresh client of lc, reading over TCP
// through lc's Directory: one lane, two failovers. The handle is closed
// when the test ends (a second Close does nothing).
func (lc *chaosCluster) openRead(t *testing.T) *dfsc.Reader {
	t.Helper()
	r, err := lc.client(t, qos.Firm).OpenRead(lc.Dir, 0, dfsc.StripeConfig{Width: 1, MaxFailovers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// storedBytes fetches the bytes rm stores for file, whole and
// checksum-verified.
func (lc *chaosCluster) storedBytes(t *testing.T, rm ids.RMID, file ids.FileID) []byte {
	t.Helper()
	cli, ok := lc.Dir.RMClient(rm)
	if !ok {
		t.Fatalf("RM %v unreachable", rm)
	}
	var buf bytes.Buffer
	if _, err := readWhole(cli, file, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readSpans issues n random-offset, random-length ReadAts on h and fails
// unless each returns exactly want's bytes at its offset.
func readSpans(t *testing.T, h *dfsc.Reader, want []byte, r *rand.Rand, n int) {
	t.Helper()
	size := int64(len(want))
	for i := 0; i < n; i++ {
		off := r.Int63n(size)
		p := make([]byte, 1+r.Intn(300<<10))
		got, err := h.ReadAt(p, off)
		end := min(off+int64(len(p)), size)
		if err != nil && !(err == io.EOF && end == size) {
			t.Fatalf("read [%d,+%d): %v", off, len(p), err)
		}
		if int64(got) != end-off || !bytes.Equal(p[:got], want[off:end]) {
			t.Fatalf("read [%d,+%d) returned %d bytes that differ from the RM's %d", off, len(p), got, end-off)
		}
	}
}

// TestLiveReaderRandomReads: random-offset, random-length ReadAts on one
// open handle over real TCP are byte-exact against the bytes the RM
// stores, and run under the reservation OpenRead made; Close returns it.
func TestLiveReaderRandomReads(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(400)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})
	want := lc.storedBytes(t, 1, 0)

	h := lc.openRead(t)
	if n := lc.Node(1).ActiveReservations(); n != 1 {
		t.Fatalf("%d reservation(s) after open, want 1", n)
	}
	readSpans(t, h, want, rand.New(rand.NewSource(1)), 40)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n, got := lc.Node(1).ActiveReservations(), lc.Node(1).Allocated(); n != 0 || got != 0 {
		t.Fatalf("%d reservation(s), %v allocated after close, want none", n, got)
	}
}

// TestChaosReaderFailsOver kills the RM an OpenRead chose between two of
// its reads: the handle fails over to the surviving replica and every
// span stays byte-exact. Close returns the survivor's reservation; the
// corpse never hears of its own, so one lease sweep reclaims it.
func TestChaosReaderFailsOver(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		// RemOnly ranks by remaining bandwidth, so RM 1 wins the open.
		Caps:    []units.BytesPerSec{units.Mbps(400), units.Mbps(200)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
		RM:      RMSpec{LeaseTTL: leaseTTL},
	})
	want := lc.storedBytes(t, 2, 0)

	h := lc.openRead(t)
	if n1, n2 := lc.Node(1).ActiveReservations(), lc.Node(2).ActiveReservations(); n1 != 1 || n2 != 0 {
		t.Fatalf("open reserved %d on RM 1 and %d on RM 2, want RM 1 alone", n1, n2)
	}
	r := rand.New(rand.NewSource(2))
	readSpans(t, h, want, r, 10)
	lc.KillRM(1)
	readSpans(t, h, want, r, 10)
	if n := lc.Node(2).ActiveReservations(); n != 1 {
		t.Fatalf("%d reservation(s) on the survivor, want the failover's 1", n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := lc.Node(2).Allocated(); got != 0 {
		t.Fatalf("RM 2 still has %v allocated after close", got)
	}
	if n := lc.Node(1).SweepLeases(lc.Sched.Now().Add(pastLease)); n != 1 {
		t.Fatalf("sweep reclaimed %d reservation(s) on the dead RM, want 1", n)
	}
	if got := lc.Node(1).Allocated(); got != 0 {
		t.Fatalf("RM 1 still has %v allocated after the sweep", got)
	}
	if text := lc.exposition(t); !strings.Contains(text, "dfsqos_dfsc_failovers_total 1") {
		t.Fatalf("exposition missing the failover:\n%s", text)
	}
}

// TestChaosReaderReadsRenewLease: a handle read a little at a time keeps
// its reservation's lease alive through four TTLs under a running sweeper
// — each read streams under the reservation OpenRead made, and its chunks
// renew the lease — and Close ends it.
func TestChaosReaderReadsRenewLease(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
		RM:      RMSpec{LeaseTTL: leaseTTL},
	})
	node := lc.Node(1)
	h := lc.openRead(t)
	p := make([]byte, 4<<10)
	var off int64
	for until := time.Now().Add(4 * leaseTTL); time.Now().Before(until); off += int64(len(p)) {
		if _, err := h.ReadAt(p, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if n := node.ActiveReservations(); n != 1 {
			t.Fatalf("%d reservation(s) while the handle reads, want 1", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n := node.ActiveReservations(); n != 0 {
		t.Fatalf("%d reservation(s) after close, want 0", n)
	}
}
