package dfsc

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// readerBodyBytes is file 0's size in the Reader tests: a few ramped
// ranges, and no multiple of any chunk or segment size.
const readerBodyBytes = 200<<10 + 3

// newReaderHarness places file 0, with a seeded random body, on RMs 1
// and 2, leaves file 1 unplaced, and returns a client with the streamer
// that serves the body.
func newReaderHarness(t *testing.T) (*harness, *Client, *rangedStreamer) {
	t.Helper()
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(100)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	h.catalog.File(0).Size = readerBodyBytes
	body := make([]byte, readerBodyBytes)
	rand.New(rand.NewSource(9)).Read(body)
	return h, h.client(t, selection.RemOnly, qos.Firm), &rangedStreamer{body: body}
}

// allocated sums the bandwidth every RM of h holds.
func (h *harness) allocated() units.BytesPerSec {
	var sum units.BytesPerSec
	for _, node := range h.rms {
		sum += node.Allocated()
	}
	return sum
}

// TestReaderLifecycle: OpenRead holds one reservation until Close;
// sequential and random-offset reads on the handle are byte-exact; Close
// returns the reservation, a read after it fails, and a second Close does
// nothing.
func TestReaderLifecycle(t *testing.T) {
	h, c, s := newReaderHarness(t)
	f := h.catalog.File(0)
	r, err := c.OpenRead(s, 0, StripeConfig{Width: 1, MaxFailovers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.allocated(); got != f.Bitrate {
		t.Fatalf("allocated %v across RMs while open, want the bitrate %v", got, f.Bitrate)
	}

	var got bytes.Buffer
	buf := make([]byte, 64<<10)
	for off := int64(0); ; {
		n, err := r.ReadAt(buf, off)
		got.Write(buf[:n])
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), s.body) {
		t.Fatalf("sequential reads returned %d bytes that differ from the file's %d", got.Len(), len(s.body))
	}
	part := make([]byte, 100)
	if _, err := r.ReadAt(part, 70000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, s.body[70000:70100]) {
		t.Fatal("random-offset read differs from the file")
	}
	if got := h.allocated(); got != f.Bitrate {
		t.Fatalf("allocated %v after the reads, want the one reservation's %v", got, f.Bitrate)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoneAllocated(t, h)
	if _, err := r.ReadAt(buf, 0); err == nil {
		t.Fatal("read after Close succeeded")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	assertNoneAllocated(t, h)
}

// TestReaderConcurrentReads: four goroutines reading random spans of one
// handle at once each get exactly the file's bytes.
func TestReaderConcurrentReads(t *testing.T) {
	h, c, s := newReaderHarness(t)
	r, err := c.OpenRead(s, 0, StripeConfig{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(s.body))
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(g))
			for range 25 {
				off := rnd.Int63n(size)
				p := make([]byte, 1+rnd.Intn(100<<10))
				n, err := r.ReadAt(p, off)
				end := min(off+int64(len(p)), size)
				if err != nil && !(err == io.EOF && end == size) {
					t.Errorf("read [%d,+%d): %v", off, len(p), err)
					return
				}
				if !bytes.Equal(p[:n], s.body[off:end]) {
					t.Errorf("read [%d,+%d) returned %d bytes that differ from the file's %d", off, len(p), n, end-off)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoneAllocated(t, h)
}

// TestReaderReadAtEdges: a read at the end of the file is io.EOF with no
// bytes, a negative offset is an error, and a read over the last 3 bytes
// returns them with io.EOF.
func TestReaderReadAtEdges(t *testing.T) {
	_, c, s := newReaderHarness(t)
	r, err := c.OpenRead(s, 0, StripeConfig{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 10)
	if n, err := r.ReadAt(buf, readerBodyBytes); n != 0 || err != io.EOF {
		t.Fatalf("read at EOF = (%d, %v), want (0, EOF)", n, err)
	}
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	n, err := r.ReadAt(buf, readerBodyBytes-3)
	if n != 3 || err != io.EOF {
		t.Fatalf("tail read = (%d, %v), want (3, EOF)", n, err)
	}
	if !bytes.Equal(buf[:3], s.body[readerBodyBytes-3:]) {
		t.Fatal("tail read differs from the file")
	}
}

// TestOpenReadUnknownOrUnplacedFile: opening a file outside the catalog,
// or one no RM holds, fails and reserves nothing.
func TestOpenReadUnknownOrUnplacedFile(t *testing.T) {
	h, c, s := newReaderHarness(t)
	for _, file := range []ids.FileID{ids.NoneFile, ids.FileID(h.catalog.Len()), 1} {
		if r, err := c.OpenRead(s, file, StripeConfig{Width: 1}); err == nil {
			r.Close()
			t.Fatalf("OpenRead of file %d succeeded", file)
		}
	}
	assertNoneAllocated(t, h)
}
