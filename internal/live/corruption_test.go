package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// flipRelay is a TCP relay in front of one RMServer that corrupts data in
// flight: in one direction it forwards frame by frame, and while its
// budget lasts it flips the last body byte of each data-sized frame —
// which, on the binary codec, is the last payload byte of a FileChunk
// (control frames are tens of bytes and pass untouched, so framing and
// negotiation stay intact). Nothing in the production stack knows it is
// there: only a checksum can notice.
type flipRelay struct {
	ln           net.Listener
	target       string
	towardClient bool // corrupt server→client frames (reads) rather than client→server (uploads)

	budget  atomic.Int32 // data frames still to corrupt
	flipped atomic.Int32 // data frames corrupted so far

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

// dataFrameBytes separates data chunks from control frames by size.
const dataFrameBytes = 1024

func startFlipRelay(t *testing.T, target string, towardClient bool) *flipRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &flipRelay{ln: ln, target: target, towardClient: towardClient}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, client, server)
			r.mu.Unlock()
			toServer, toClient := io.Copy, io.Copy
			if towardClient {
				toClient = r.corrupt
			} else {
				toServer = r.corrupt
			}
			r.wg.Add(2)
			go r.pump(toServer, server, client)
			go r.pump(toClient, client, server)
		}
	}()
	return r
}

// pump relays one direction until either side ends, then takes the pair
// down so the opposite pump ends too.
func (r *flipRelay) pump(relay func(io.Writer, io.Reader) (int64, error), dst, src net.Conn) {
	defer r.wg.Done()
	relay(dst, src)
	dst.Close()
	src.Close()
}

// corrupt forwards wire frames (4-byte body length, codec tag, body) and
// flips a byte in data frames while the budget lasts.
func (r *flipRelay) corrupt(dst io.Writer, src io.Reader) (int64, error) {
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return 0, err
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:4]))
		if _, err := io.ReadFull(src, body); err != nil {
			return 0, err
		}
		if len(body) > dataFrameBytes && r.budget.Add(-1) >= 0 {
			body[len(body)-1] ^= 0x40
			r.flipped.Add(1)
		}
		if _, err := dst.Write(append(hdr[:], body...)); err != nil {
			return 0, err
		}
	}
}

func (r *flipRelay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// startCorruptibleCluster stands up two unthrottled RMs holding file 0 and
// puts a flipRelay in front of RM 1 by re-registering it at the relay's
// address, so every client that resolves RM 1 through the MM talks to it
// through the relay. RM 2 is reached directly.
func startCorruptibleCluster(t *testing.T, towardClient bool) (*Local, *flipRelay) {
	t.Helper()
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(1e6), units.Mbps(1e6)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
	})
	relay := startFlipRelay(t, lc.Server(1).Addr(), towardClient)
	info := lc.Node(1).Info()
	info.Addr = relay.ln.Addr().String()
	if err := lc.Mapper.RegisterRM(info, []ids.FileID{0}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.close)
	return lc, relay
}

func wantChecksumMismatch(t *testing.T, what string, err error, relay *flipRelay, flips int32) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("%s with a flipped payload byte: err = %v, want a checksum mismatch", what, err)
	}
	if got := relay.flipped.Load(); got != flips {
		t.Fatalf("%s: relay flipped %d frame(s) so far, want %d", what, got, flips)
	}
}

// TestLiveCorruptedRangeIsCaughtAndRefetched flips one payload byte of a
// ranged read. Directly, StreamRange must refuse the range; under a
// 2-wide striped read the lane that received it must give the segment
// back, and the read must still complete — every segment from the clean
// replica — with the disk's whole-file checksum.
func TestLiveCorruptedRangeIsCaughtAndRefetched(t *testing.T) {
	lc, relay := startCorruptibleCluster(t, true)
	ctx := context.Background()
	size := int64(lc.Catalog.File(0).Size)

	relay.budget.Store(1)
	sum := wire.ChecksumBasis
	_, err := lc.Dir.StreamRange(ctx, 1, 0, 0, 0, size/2, io.Discard, &sum)
	wantChecksumMismatch(t, "StreamRange", err, relay, 1)
	// The relay is clean again: the same range verifies.
	sum = wire.ChecksumBasis
	if _, err := lc.Dir.StreamRange(ctx, 1, 0, 0, 0, size/2, io.Discard, &sum); err != nil {
		t.Fatalf("clean StreamRange through the relay: %v", err)
	}

	client, err := dfsc.New(dfsc.Options{
		ID: 1, Mapper: lc.Mapper, Directory: lc.Dir, Scheduler: lc.Sched, Catalog: lc.Catalog,
		Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lc.Server(1).disk.Checksum(FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	relay.budget.Store(1)
	var got bytes.Buffer
	res, err := client.ReadStriped(&bothLanesStart{Directory: lc.Dir}, 0, &got, dfsc.StripeConfig{
		Width: 2, SegmentBytes: size / 8, MaxFailovers: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("striped read around one corrupted range: %v", err)
	}
	if relay.flipped.Load() != 2 {
		t.Fatalf("relay flipped %d frame(s), want 2: the striped read never met the corruption", relay.flipped.Load())
	}
	if res.Checksum != want || vdisk.ChecksumBytes(got.Bytes()) != want || res.Bytes != size {
		t.Fatalf("striped read delivered %d bytes summing to %x (result says %x), disk has %d bytes summing to %x",
			got.Len(), vdisk.ChecksumBytes(got.Bytes()), res.Checksum, size, want)
	}
	// RM 1's first range was the corrupted one, which excluded it for the
	// rest of the read: every committed segment is RM 2's copy.
	for _, seg := range res.Segments {
		if seg.RM != 2 {
			t.Fatalf("segment at %d committed from %v, whose copy arrived corrupted", seg.Offset, seg.RM)
		}
	}
}

// bothLanesStart holds the first range request for each RM until lanes
// RMs have issued one (two when lanes is zero), so every lane is sure to
// fetch a segment before another has drained the file — here, the lane on
// the corrupted replica.
type bothLanesStart struct {
	*Directory
	lanes   int
	mu      sync.Mutex
	seen    map[ids.RMID]bool
	started chan struct{}
}

func (b *bothLanesStart) StreamRange(ctx context.Context, rmID ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	b.mu.Lock()
	if b.seen == nil {
		b.seen, b.started = make(map[ids.RMID]bool), make(chan struct{})
	}
	if !b.seen[rmID] {
		b.seen[rmID] = true
		if len(b.seen) == max(b.lanes, 2) {
			close(b.started)
		}
	}
	started := b.started
	b.mu.Unlock()
	select {
	case <-started:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return b.Directory.StreamRange(ctx, rmID, file, req, offset, length, w, sum)
}

// TestLiveCorruptedStreamToEOFIsCaught flips one payload byte of a
// whole-file read: the client's fold no longer matches the whole-file sum
// the server's FileEnd carries.
func TestLiveCorruptedStreamToEOFIsCaught(t *testing.T) {
	lc, relay := startCorruptibleCluster(t, true)
	relay.budget.Store(1)
	sum := wire.ChecksumBasis
	_, err := lc.Dir.StreamAt(context.Background(), 1, 0, 0, 0, io.Discard, &sum)
	wantChecksumMismatch(t, "StreamAt", err, relay, 1)
}

// TestLiveCorruptedUploadIsRefused flips one payload byte of an upload on
// its way to the server: the server must answer with a served error — the
// connection stays usable — and keep the object it already had.
func TestLiveCorruptedUploadIsRefused(t *testing.T) {
	lc, relay := startCorruptibleCluster(t, false)
	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 unreachable through the relay")
	}
	const file = ids.FileID(7)
	old := bytes.Repeat([]byte("old contents "), 10_000)
	fresh := bytes.Repeat([]byte("new contents "), 10_000)
	ctx := context.Background()
	if err := cli.WriteFile(ctx, file, 0, int64(len(old)), bytes.NewReader(old)); err != nil {
		t.Fatalf("clean upload through the relay: %v", err)
	}

	relay.budget.Store(1)
	err := cli.WriteFile(ctx, file, 0, int64(len(fresh)), bytes.NewReader(fresh))
	wantChecksumMismatch(t, "WriteFile", err, relay, 1)
	if !transport.IsRemote(err) {
		t.Fatalf("refusal %v is not a served error", err)
	}
	kept := make([]byte, len(old))
	if _, err := lc.Server(1).disk.ReadAtRaw(FileName(file), kept, 0); (err != nil && err != io.EOF) || !bytes.Equal(kept, old) {
		t.Fatalf("disk after the refused upload no longer holds the old object (read err %v)", err)
	}
}
