package vdisk

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"sync"
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
	if got := ChecksumBytes(data); got != want {
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
// are multiples neither of the 8-byte synthesis block nor of the 64 KiB
// pass Checksum makes.
func TestChecksumIsTheWireFoldOfTheServedBytes(t *testing.T) {
	ctrl, _ := fastController()
	d, err := New(100*units.MB, ctrl, "vm1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, size := range []int{1, 13, 64*1024 + 5, 3*64*1024 - 3} {
		if err := d.Provision("synth", units.Size(size)); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(i*131 + size)
		}
		if err := d.WriteRaw("stored", content); err != nil {
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
	if got := ChecksumBytes(served); got != sum {
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
		"WriteRaw":  func(d *Disk, name string, n int) error { return d.WriteRaw(name, make([]byte, n)) },
	}
	for label, store := range stores {
		ctrl, _ := fastController()
		d, err := New(100, ctrl, "vm1", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteRaw("a", old); err != nil {
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
