package vdisk

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// fastController returns a controller whose sleeps are instantaneous but
// accounted, so tests measure virtual throttle time.
func fastController() (*blkio.Controller, *time.Duration) {
	var slept time.Duration
	var mu sync.Mutex
	now := time.Unix(0, 0)
	ctrl := blkio.NewController(
		blkio.WithClock(func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}),
		blkio.WithSleep(func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			slept += d
			mu.Unlock()
		}),
	)
	return ctrl, &slept
}

func newDisk(t *testing.T) *Disk {
	t.Helper()
	ctrl, _ := fastController()
	d, err := New(100*units.MB, ctrl, "vm1", units.MBps(2), units.MBps(2))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	ctrl, _ := fastController()
	if _, err := New(0, ctrl, "vm1", 0, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(units.MB, ctrl, "", 0, 0); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestProvisionAndStat(t *testing.T) {
	d := newDisk(t)
	if err := d.Provision("a.mp4", 10*units.MB); err != nil {
		t.Fatal(err)
	}
	size, err := d.Stat("a.mp4")
	if err != nil || size != 10*units.MB {
		t.Fatalf("Stat = (%v, %v)", size, err)
	}
	if d.Used() != 10*units.MB {
		t.Fatalf("Used = %v", d.Used())
	}
	if _, err := d.Stat("missing"); err == nil {
		t.Fatal("Stat of missing file succeeded")
	}
	if err := d.Provision("big", 200*units.MB); err == nil {
		t.Fatal("overflow provision accepted")
	}
	if err := d.Provision("neg", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestProvisionReplaceReclaimsSpace(t *testing.T) {
	d := newDisk(t)
	d.Provision("a", 60*units.MB)
	if err := d.Provision("a", 90*units.MB); err != nil {
		t.Fatalf("replacing provision failed: %v", err)
	}
	if d.Used() != 90*units.MB {
		t.Fatalf("Used = %v after replace", d.Used())
	}
}

func TestDelete(t *testing.T) {
	d := newDisk(t)
	d.Provision("a", 10*units.MB)
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatalf("Used = %v after delete", d.Used())
	}
	if err := d.Delete("a"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestList(t *testing.T) {
	d := newDisk(t)
	d.Provision("b", units.MB)
	d.Provision("a", units.MB)
	got := d.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
}

func TestReadAtDeterministicContent(t *testing.T) {
	d := newDisk(t)
	d.Provision("a", 1000)
	full := make([]byte, 1000)
	if _, err := d.ReadAt(context.Background(), "a", full, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// Rereads and arbitrary slices match the full read.
	part := make([]byte, 100)
	if _, err := d.ReadAt(context.Background(), "a", part, 450); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, full[450:550]) {
		t.Fatal("slice read differs from full read")
	}
	// Distinct files have distinct contents.
	d.Provision("b", 1000)
	other := make([]byte, 1000)
	d.ReadAt(context.Background(), "b", other, 0)
	if bytes.Equal(full, other) {
		t.Fatal("distinct files share content")
	}
}

func TestReadAtBoundaries(t *testing.T) {
	d := newDisk(t)
	d.Provision("a", 100)
	buf := make([]byte, 60)
	n, err := d.ReadAt(context.Background(), "a", buf, 80)
	if n != 20 || err != io.EOF {
		t.Fatalf("tail read = (%d, %v), want (20, EOF)", n, err)
	}
	if _, err := d.ReadAt(context.Background(), "a", buf, 100); err != io.EOF {
		t.Fatalf("past-end read err = %v, want EOF", err)
	}
	if _, err := d.ReadAt(context.Background(), "a", buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := d.ReadAt(context.Background(), "missing", buf, 0); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestWriteStoresExplicitData(t *testing.T) {
	d := newDisk(t)
	data := []byte("hello storage qos")
	if err := d.Write(context.Background(), "w", data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(context.Background(), "w", got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	// The stored copy is isolated from caller mutation.
	data[0] = 'X'
	d.ReadAt(context.Background(), "w", got, 0)
	if got[0] == 'X' {
		t.Fatal("disk shares the caller's buffer")
	}
}

func TestReaderStreamsWholeFile(t *testing.T) {
	d := newDisk(t)
	d.Provision("a", 300*1024)
	r, size, err := d.Reader(context.Background(), "a", 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != int64(size) {
		t.Fatalf("streamed %d bytes, want %d", len(data), size)
	}
	want, _ := d.Checksum("a")
	if got := checksumBytes(data); got != want {
		t.Fatalf("checksum mismatch: %x vs %x", got, want)
	}
}

func TestThrottledReadAccumulatesDelay(t *testing.T) {
	ctrl, slept := fastController()
	d, err := New(100*units.MB, ctrl, "vm1", units.MBps(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Provision("a", 10*units.MB)
	r, _, _ := d.Reader(context.Background(), "a", 256*1024)
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	// 10 MB at 1 MB/s minus the 1 MB burst ⇒ ~9 s of throttle sleep.
	if slept.Seconds() < 8 || slept.Seconds() > 10 {
		t.Fatalf("throttle slept %v, want ~9s", *slept)
	}
}

func TestChecksumStability(t *testing.T) {
	d := newDisk(t)
	d.Provision("a", 12345)
	c1, err := d.Checksum("a")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := d.Checksum("a")
	if c1 != c2 {
		t.Fatal("checksum not stable")
	}
	if _, err := d.Checksum("missing"); err == nil {
		t.Fatal("checksum of missing file succeeded")
	}
}

// TestChecksumIsTheWireFoldOfTheServedBytes ties the disk's whole-file sum
// to what a stream end verifies: folding the bytes ReadAtGroup serves, in
// pieces of an odd size, through wire.ChecksumUpdate must land on
// Checksum(name) — for synthesized and for stored contents, at sizes that
// are multiples neither of the 8-byte synthesis block, nor of the 64 KiB
// pass Checksum makes, nor of the block a written file is stored in.
func TestChecksumIsTheWireFoldOfTheServedBytes(t *testing.T) {
	ctrl, _ := fastController()
	d, err := New(100*units.MB, ctrl, "vm1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, size := range []int{1, 13, 64*1024 + 5, 3*64*1024 - 3, 2*blockSize + 3} {
		if err := d.Provision("synth", units.Size(size)); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(i*131 + size)
		}
		if err := d.WriteRaw("stored", written(content)); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"synth", "stored"} {
			want, err := d.Checksum(name)
			if err != nil {
				t.Fatal(err)
			}
			got := wire.ChecksumBasis
			buf := make([]byte, 1000)
			for off := int64(0); off < int64(size); {
				n, err := d.ReadAtGroup(ctx, d.DefaultGroup(), name, buf, off)
				if err != nil && err != io.EOF {
					t.Fatal(err)
				}
				got = wire.ChecksumUpdate(got, buf[:n])
				off += int64(n)
			}
			if got != want {
				t.Errorf("%s, %d bytes: fold of the served bytes %#x, Checksum %#x", name, size, got, want)
			}
		}
	}
}

// refFillSynthetic is the reference model of fillSynthetic: the per-word
// loop it replaced, one synthWord per 8 bytes. The synthesized bytes are a
// contract — every memoized Checksum and every stream a client verifies
// is a function of them — so the fast fill must match it byte for byte.
func refFillSynthetic(p []byte, seed uint64, off int64) {
	k := uint64(off)
	i := 0
	for i < len(p) && k%8 != 0 {
		p[i] = synthByte(k, seed)
		i++
		k++
	}
	for len(p)-i >= 8 {
		binary.LittleEndian.PutUint64(p[i:i+8], synthWord(k/8, seed))
		i += 8
		k += 8
	}
	for i < len(p) {
		p[i] = synthByte(k, seed)
		i++
		k++
	}
}

// checkFillMatchesReference fills n bytes at off both ways, into buffers
// with a guard byte behind them, and fails on any difference or on a write
// past n.
func checkFillMatchesReference(t *testing.T, seed uint64, off int64, n int) {
	t.Helper()
	got, want := make([]byte, n+1), make([]byte, n+1)
	got[n], want[n] = 0xa5, 0xa5
	fillSynthetic(got[:n], seed, off)
	refFillSynthetic(want[:n], seed, off)
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %#x, offset %d, %d bytes: fill differs from the per-word reference", seed, off, n)
	}
}

// TestFillSyntheticMatchesReference walks every alignment of the ragged
// head (offsets 0–15) against every length through the four-block step,
// the single-block loop and the ragged tail (0–100), then lengths either
// side of a 64 KiB read.
func TestFillSyntheticMatchesReference(t *testing.T) {
	seed := seedOf("contract")
	for off := int64(0); off < 16; off++ {
		for n := 0; n <= 100; n++ {
			checkFillMatchesReference(t, seed, off, n)
		}
	}
	for _, off := range []int64{0, 3, 1 << 40} {
		for d := 1; d <= 9; d++ {
			checkFillMatchesReference(t, seed, off, 64*1024-d)
			checkFillMatchesReference(t, seed, off, 64*1024+d)
		}
	}
}

// FuzzFillSynthetic holds the fill to its reference at any seed, offset
// and length.
func FuzzFillSynthetic(f *testing.F) {
	f.Add(uint64(1), int64(0), uint16(0))
	f.Add(seedOf("a"), int64(5), uint16(37))
	f.Add(seedOf("b"), int64(1<<40+3), uint16(64*1024-1))
	f.Fuzz(func(t *testing.T, seed uint64, off int64, n uint16) {
		if off < 0 {
			off = -(off + 1)
		}
		checkFillMatchesReference(t, seed, off, int(n))
	})
}

// TestSynthesizedChecksumGolden pins the CRC-32C of one provisioned file.
// A change to the content function — the mix, the seed hash, how bytes
// are cut from a word — moves every synthesized byte and every checksum
// at once; this makes it fail a test instead of silently re-basing them.
func TestSynthesizedChecksumGolden(t *testing.T) {
	d := newDisk(t)
	const size = 1<<20 + 3
	if err := d.Provision("golden.bin", size); err != nil {
		t.Fatal(err)
	}
	sum, err := d.Checksum("golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x1c2a98f0
	if sum != want {
		t.Fatalf("Checksum of a provisioned %d-byte golden.bin = %#x, want %#x", size, sum, want)
	}
	served := make([]byte, size)
	if n, err := d.ReadAtRaw("golden.bin", served, 0); n != size || err != io.EOF {
		t.Fatalf("ReadAtRaw = (%d, %v)", n, err)
	}
	if got := checksumBytes(served); got != sum {
		t.Fatalf("fold of the served bytes %#x, Checksum %#x", got, sum)
	}
}

// BenchmarkFillSynthetic is the disk's per-byte content cost for a
// 128 KiB chunk, the size a stream reads at.
func BenchmarkFillSynthetic(b *testing.B) {
	p := make([]byte, 128*1024)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		fillSynthetic(p, 0x9e37, int64(i)*int64(len(p)))
	}
}

// TestRefusedOverwriteLeavesDiskUntouched fills a disk and then attempts,
// through each of the three store paths, an overwrite that would overflow
// it: the error must come back with Used unchanged and the old contents
// still readable, and the freed-space arithmetic must still be exact
// afterwards (an overwrite that fits to the byte is accepted, one byte
// more is refused).
func TestRefusedOverwriteLeavesDiskUntouched(t *testing.T) {
	ctx := context.Background()
	old := bytes.Repeat([]byte("old!"), 10)
	stores := map[string]func(d *Disk, name string, n int) error{
		"Provision": func(d *Disk, name string, n int) error { return d.Provision(name, units.Size(n)) },
		"Write":     func(d *Disk, name string, n int) error { return d.Write(ctx, name, make([]byte, n)) },
		"WriteRaw":  func(d *Disk, name string, n int) error { return d.WriteRaw(name, written(make([]byte, n))) },
	}
	for label, store := range stores {
		ctrl, _ := fastController()
		d, err := New(100, ctrl, "vm1", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteRaw("a", written(old)); err != nil {
			t.Fatal(err)
		}
		if err := d.Provision("b", 60); err != nil {
			t.Fatal(err)
		}
		if d.Used() != 100 {
			t.Fatalf("%s: Used = %v after filling the disk", label, d.Used())
		}
		if err := store(d, "a", 41); err == nil {
			t.Fatalf("%s: overwrite overflowing the disk by one byte accepted", label)
		}
		if d.Used() != 100 {
			t.Errorf("%s: Used = %v after a refused overwrite, want 100", label, d.Used())
		}
		got := make([]byte, len(old))
		if _, err := d.ReadAtRaw("a", got, 0); (err != nil && err != io.EOF) || !bytes.Equal(got, old) {
			t.Errorf("%s: old contents after a refused overwrite = %q, %v", label, got, err)
		}
		if err := store(d, "c", 1); err == nil {
			t.Errorf("%s: full disk accepted a new file after a refused overwrite", label)
		}
		if err := store(d, "a", 40); err != nil {
			t.Errorf("%s: exact-fit overwrite refused: %v", label, err)
		}
		if d.Used() != 100 {
			t.Errorf("%s: Used = %v after the exact-fit overwrite, want 100", label, d.Used())
		}
	}
}

// TestChecksumConcurrentColdReaders hashes cold files from several
// goroutines at once: the first finisher publishes the memo while the
// others may still be reading it, which `make race` reports if the memo is
// read outside the lock. The files are small and many because the race
// detector only reports an access pair whose first stack it can still
// reconstruct — a long hash pass between the read and the publish hides
// it. All readers must agree on every sum.
func TestChecksumConcurrentColdReaders(t *testing.T) {
	d := newDisk(t)
	const files, readers = 200, 4
	for f := 0; f < files; f++ {
		name := string(rune('a'+f%26)) + string(rune('a'+f/26))
		d.Provision(name, 64)
		var sums [readers]uint64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range sums {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				sum, err := d.Checksum(name)
				if err != nil {
					t.Error(err)
				}
				sums[i] = sum
			}(i)
		}
		close(start)
		wg.Wait()
		for i, sum := range sums {
			if sum != sums[0] {
				t.Fatalf("%s: reader %d saw %x, reader 0 saw %x", name, i, sum, sums[0])
			}
		}
	}
}

// written is data as a Content, copied in through Write.
func written(data []byte) *Content {
	c := NewContent(int64(len(data)))
	if _, err := c.Write(data); err != nil {
		panic(err)
	}
	return c
}

// contiguous is the reference model of a written file: the one slice the
// disk held a written file in before it stored blocks, read the way readAt
// served it and summed the way Checksum folded it.
type contiguous []byte

func (c contiguous) readAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("negative offset %d", off)
	}
	if off >= int64(len(c)) {
		return 0, io.EOF
	}
	n := copy(p, c[off:])
	if off+int64(n) == int64(len(c)) {
		return n, io.EOF
	}
	return n, nil
}

func (c contiguous) checksum() uint64 { return checksumBytes(c) }

// span is one read of a stored file: p's length at offset off.
type span struct {
	off int64
	n   int
}

// writeInPieces writes data into c in pieces whose lengths cycle through
// cuts. A piece marked in place by the matching bit of inPlace is
// received the way a socket read through AvailableBuffer would leave it —
// copied into the spare capacity, then handed to Write from there — when
// it fits; every other piece is written from data itself.
func writeInPieces(t testing.TB, c *Content, data []byte, cuts []int, inPlace uint64) {
	t.Helper()
	for i, off := 0, 0; off < len(data); i++ {
		n := min(cuts[i%len(cuts)], len(data)-off)
		p := data[off : off+n]
		if spare := c.AvailableBuffer(); inPlace>>(i%64)&1 == 1 && n <= cap(spare) {
			p = append(spare, p...)
		}
		if k, err := c.Write(p); k != n || err != nil {
			t.Fatalf("Write of a %d-byte piece at %d = (%d, %v)", n, off, k, err)
		}
		off += n
	}
	if c.Len() != int64(len(data)) {
		t.Fatalf("content holds %d bytes after writing %d", c.Len(), len(data))
	}
}

// checkStoredMatchesContiguous stores data, written in pieces (see
// writeInPieces), through WriteRaw and holds Stat, Checksum, ReadAt and
// ReadAtRaw at each span to the contiguous reference: the same byte count,
// the same terminal error and the same bytes, with nothing written past
// the count.
func checkStoredMatchesContiguous(t testing.TB, data []byte, cuts []int, inPlace uint64, reads []span) {
	t.Helper()
	ctrl, _ := fastController()
	d, err := New(units.GB, ctrl, "vm1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewContent(int64(len(data)))
	writeInPieces(t, c, data, cuts, inPlace)
	if err := d.WriteRaw("f", c); err != nil {
		t.Fatal(err)
	}
	ref := contiguous(data)
	if size, err := d.Stat("f"); err != nil || int64(size) != int64(len(data)) {
		t.Fatalf("Stat = (%v, %v), want %d", size, err, len(data))
	}
	if sum, err := d.Checksum("f"); err != nil || sum != ref.checksum() {
		t.Fatalf("%d bytes in pieces %v: Checksum = (%#x, %v), reference %#x", len(data), cuts, sum, err, ref.checksum())
	}
	reads = append(reads, span{0, len(data)})
	longest := 0
	for _, r := range reads {
		longest = max(longest, r.n)
	}
	wantBuf, gotBuf := make([]byte, longest+1), make([]byte, longest+1)
	for _, r := range reads {
		want := guard(wantBuf[:r.n+1])
		wn, werr := ref.readAt(want[:r.n], r.off)
		for label, read := range map[string]func(p []byte) (int, error){
			"ReadAt":    func(p []byte) (int, error) { return d.ReadAt(context.Background(), "f", p, r.off) },
			"ReadAtRaw": func(p []byte) (int, error) { return d.ReadAtRaw("f", p, r.off) },
		} {
			got := guard(gotBuf[:r.n+1])
			n, err := read(got[:r.n])
			if n != wn || (err == nil) != (werr == nil) || (err == io.EOF) != (werr == io.EOF) || !bytes.Equal(got, want) {
				t.Fatalf("%d bytes in pieces %v: %s of %d at %d = (%d, %v), reference (%d, %v), bytes equal %v",
					len(data), cuts, label, r.n, r.off, n, err, wn, werr, bytes.Equal(got, want))
			}
		}
	}
}

// guard zeroes p and sets its last byte, which a read into all of p but
// that byte must leave alone.
func guard(p []byte) []byte {
	clear(p)
	p[len(p)-1] = 0xa5
	return p
}

// randomBytes returns n bytes from r.
func randomBytes(r *rand.Rand, n int) []byte {
	p := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], r.Uint64())
	}
	return p[:n]
}

// randomSpans draws k reads over a file of size bytes: offsets up to a
// little past its end, lengths up to a little over the file's size or two
// blocks, whichever is less, and one read across each block boundary the
// file has.
func randomSpans(r *rand.Rand, size, k int) []span {
	var reads []span
	for i := 0; i < k; i++ {
		reads = append(reads, span{int64(r.IntN(size + 3)), r.IntN(min(size, 2*blockSize) + 3)})
	}
	for b := blockSize; b <= size; b += blockSize {
		reads = append(reads, span{int64(b - 3), 7}, span{int64(b), 1})
	}
	return append(reads, span{-1, 1}, span{int64(size), 1}, span{0, 0})
}

// TestStoredBlocksMatchContiguous holds the block store to the contiguous
// reference over sizes either side of the first two block boundaries and
// random sizes up to three blocks, written in the pieces an upload arrives
// in — 64 KiB chunks that tile the blocks, 100 000-byte chunks that
// straddle them, ragged pieces, whole blocks, the whole file at once —
// each received in place wherever it fits, or in place and copied by
// turns.
func TestStoredBlocksMatchContiguous(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	sizes := []int{0, 1, 7, blockSize - 1, blockSize, blockSize + 1, 2*blockSize - 1, 2 * blockSize, 2*blockSize + 12345}
	for i := 0; i < 2; i++ {
		sizes = append(sizes, r.IntN(3*blockSize))
	}
	for _, size := range sizes {
		data := randomBytes(r, size)
		for _, cuts := range [][]int{
			{64 << 10}, {100_000}, {1, 4095, 65537, 3}, {blockSize}, {blockSize + 1}, {max(size, 1)},
		} {
			for _, inPlace := range []uint64{^uint64(0), 0x5555555555555555} {
				checkStoredMatchesContiguous(t, data, cuts, inPlace, randomSpans(r, size, 6))
			}
		}
	}
	small := randomBytes(r, 3000)
	checkStoredMatchesContiguous(t, small, []int{1}, 0x3333333333333333, randomSpans(r, len(small), 50))
}

// FuzzStoredBlocks holds the block store to the contiguous reference at
// any size up to three blocks, any cut of the writes, any mix of in-place
// and copied pieces, and any read.
func FuzzStoredBlocks(f *testing.F) {
	f.Add(uint32(blockSize+1), uint32(100_000), uint64(0), uint64(1), int64(blockSize-5), uint32(10))
	f.Add(uint32(2*blockSize), uint32(64<<10), ^uint64(0), uint64(2), int64(0), uint32(2*blockSize))
	f.Add(uint32(0), uint32(1), uint64(1), uint64(3), int64(0), uint32(1))
	f.Fuzz(func(t *testing.T, size, cut uint32, inPlace, seed uint64, off int64, n uint32) {
		size %= 3*blockSize + 2
		// At most a few thousand pieces, so one input stays quick.
		cut = max(1+cut%(2*blockSize), size/4096)
		r := rand.New(rand.NewPCG(seed, uint64(size)))
		cuts := []int{int(cut), 1 + r.IntN(int(cut)), int(cut) + r.IntN(blockSize)}
		reads := append(randomSpans(r, int(size), 4), span{off % (int64(size) + 2), int(n % (3*blockSize + 2))})
		checkStoredMatchesContiguous(t, randomBytes(r, int(size)), cuts, inPlace, reads)
	})
}

// TestReplacedBlocksWaitForTheirReaders overwrites one file again and
// again, each version a different byte repeated, while readers read it
// whole and sum it. A replaced file's blocks go back to the pool for the
// next version to fill, so a block recycled under a read still in
// progress would show as a read that mixes two versions (and, under
// `make race`, as a write racing that read's copy); a read must see one
// version whole, and every sum must be one version's.
func TestReplacedBlocksWaitForTheirReaders(t *testing.T) {
	ctrl, _ := fastController()
	d, err := New(units.GB, ctrl, "vm1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const size, versions = 2*blockSize + 100, 64
	sums := make(map[uint64]bool)
	store := func(v byte) {
		fill := bytes.Repeat([]byte{v}, blockSize)
		c := NewContent(size)
		for c.Len() < size {
			b := c.AvailableBuffer()
			c.Write(append(b, fill[:cap(b)]...))
		}
		if err := d.WriteRaw("f", c); err != nil {
			t.Error(err)
		}
	}
	for v := 0; v < versions; v++ {
		sums[checksumBytes(bytes.Repeat([]byte{byte(v)}, size))] = true
	}
	store(0)

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, size)
			for reads := 0; !done.Load() || reads < 4; reads++ {
				if n, err := d.ReadAtRaw("f", p, 0); n != size || err != io.EOF {
					t.Errorf("ReadAtRaw = (%d, %v)", n, err)
					return
				}
				if same := bytes.Count(p, p[:1]); same != size {
					t.Errorf("one read mixes versions: %d of its %d bytes are version %d", same, size, p[0])
					return
				}
				if sum, err := d.Checksum("f"); err != nil || !sums[sum] {
					t.Errorf("Checksum = (%#x, %v), not the sum of any version", sum, err)
					return
				}
			}
		}()
	}
	for v := 1; v < versions; v++ {
		store(byte(v))
	}
	done.Store(true)
	wg.Wait()
}

// checksumBytes folds a byte slice through the disk's checksum, for
// verifying contents against Checksum.
func checksumBytes(data []byte) uint64 {
	return wire.ChecksumUpdate(wire.ChecksumBasis, data)
}
