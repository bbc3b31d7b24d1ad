package dfsc

import (
	"math/rand"
	"testing"
)

// byteRange is one segment's [off, off+length).
type byteRange struct{ off, length int64 }

// referenceLayout is the segment layout written as the loop it describes:
// walk the read from base handing out segments, width of them per size,
// doubling the size from firstSegmentBytes until it reaches segBytes. With
// segBytes ≤ firstSegmentBytes it is the uniform loop segGeometry replaced.
func referenceLayout(base, size, segBytes int64, width int) []byteRange {
	var segs []byteRange
	seg, inRound := min(firstSegmentBytes, segBytes), 0
	for off := int64(0); off < size; off += seg {
		if inRound == width {
			seg, inRound = min(2*seg, segBytes), 0
		}
		segs = append(segs, byteRange{base + off, min(seg, size-off)})
		inRound++
	}
	return segs
}

// checkGeometry holds segGeometry to the reference loop and to the
// properties the scheduler relies on: the segments tile [base, base+size)
// in order.
func checkGeometry(t *testing.T, base, size, segBytes int64, width int) {
	t.Helper()
	g := newSegGeometry(base, size, segBytes, width)
	want := referenceLayout(base, size, segBytes, width)
	if got := g.numSegs; got != len(want) {
		t.Fatalf("base %d size %d seg %d width %d: numSegs = %d, reference has %d", base, size, segBytes, width, got, len(want))
	}
	pos := base
	for i, w := range want {
		off, length := g.segRange(i)
		if (byteRange{off, length}) != w {
			t.Fatalf("base %d size %d seg %d width %d: segment %d = [%d,+%d), reference [%d,+%d)",
				base, size, segBytes, width, i, off, length, w.off, w.length)
		}
		if off != pos || length <= 0 || length > segBytes || off+length > base+size {
			t.Fatalf("base %d size %d seg %d width %d: segment %d = [%d,+%d) after %d (cap %d)",
				base, size, segBytes, width, i, off, length, pos, segBytes)
		}
		if i < width && segBytes > firstSegmentBytes && length != min(firstSegmentBytes, base+size-off) {
			t.Fatalf("base %d size %d seg %d width %d: opening segment %d is %d bytes, want %d",
				base, size, segBytes, width, i, length, firstSegmentBytes)
		}
		if segBytes <= firstSegmentBytes && off != base+int64(i)*segBytes {
			t.Fatalf("base %d size %d seg %d width %d: segment %d at %d, want the uniform layout's %d",
				base, size, segBytes, width, i, off, base+int64(i)*segBytes)
		}
		pos += length
	}
	if pos != base+size {
		t.Fatalf("base %d size %d seg %d width %d: segments end at %d", base, size, segBytes, width, pos)
	}
}

func TestStripeGeometryMatchesReferenceLoop(t *testing.T) {
	// The shapes the issue names, then random ones.
	for _, c := range []struct {
		base, size, segBytes int64
		width                int
	}{
		{0, 64 << 20, 1 << 20, 4},              // the benchmark's read: 20 ramp + 61 steady
		{0, 100 << 10, 1 << 20, 4},             // ends inside round 0
		{0, 4*(32<<10) + 1, 1 << 20, 4},        // one byte into round 1
		{0, 3968 << 10, 1 << 20, 4},            // ends exactly where the ramp does
		{0, (3968 << 10) + 1, 1 << 20, 4},      // one byte of steady state
		{0, 1 << 20, 100_000, 3},               // SegmentBytes not a power of two
		{0, 1 << 20, firstSegmentBytes, 4},     // no ramp: uniform
		{0, 1 << 20, firstSegmentBytes + 1, 4}, // one round, then 32 KiB + 1
		{0, 1000, 128, 2},                      // far below the first segment
		{0, 1, 1 << 20, 8},
		{0, 0, 1 << 20, 4},
		{1000, 128 << 10, 1 << 20, 1},   // a FUSE read of 128 KiB at 1000
		{(64 << 20) - 7, 7, 1 << 20, 1}, // the file's last bytes
	} {
		checkGeometry(t, c.base, c.size, c.segBytes, c.width)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		segBytes := 1 + r.Int63n(4<<20)
		if i%4 == 0 {
			segBytes = 1 + r.Int63n(firstSegmentBytes)
		}
		size := r.Int63n(200 * segBytes)
		if i%3 == 0 {
			size = r.Int63n(8 * firstSegmentBytes) // inside the first rounds
		}
		var base int64
		if i%2 == 0 {
			base = r.Int63n(1 << 40)
		}
		checkGeometry(t, base, size, segBytes, 1+r.Intn(8))
	}
}

func FuzzStripeGeometry(f *testing.F) {
	f.Add(int64(0), int64(64<<20), int64(1<<20), 4)
	f.Add(int64(0), int64(100<<10), int64(1<<20), 4)
	f.Add(int64(1000), int64(1<<20), int64(100_000), 3)
	f.Add(int64(7), int64(1000), int64(128), 2)
	f.Add(int64(1)<<40, int64(1<<20), int64(1)<<62, 8)
	f.Fuzz(func(t *testing.T, base, size, segBytes int64, width int) {
		if base < 0 || size < 0 || base > 1<<62-size || segBytes <= 0 || width < 1 || width > 8 {
			t.Skip()
		}
		if size/min(segBytes, firstSegmentBytes) > 1<<16 {
			t.Skip() // keep the reference loop short
		}
		checkGeometry(t, base, size, segBytes, width)
	})
}
