package dfsc

import (
	"math/rand"
	"testing"
)

// byteRange is one segment's [off, off+length).
type byteRange struct{ off, length int64 }

// referenceLayout is the segment layout written as the loop it describes:
// walk the file handing out segments, width of them per size, doubling the
// size from firstSegmentBytes until it reaches segBytes. With segBytes ≤
// firstSegmentBytes it is the uniform loop segGeometry replaced.
func referenceLayout(size, segBytes int64, width int) []byteRange {
	var segs []byteRange
	seg, inRound := min(firstSegmentBytes, segBytes), 0
	for off := int64(0); off < size; off += seg {
		if inRound == width {
			seg, inRound = min(2*seg, segBytes), 0
		}
		segs = append(segs, byteRange{off, min(seg, size-off)})
		inRound++
	}
	return segs
}

// checkGeometry holds segGeometry to the reference loop and to the
// properties the scheduler relies on.
func checkGeometry(t *testing.T, size, segBytes int64, width int) {
	t.Helper()
	g := newSegGeometry(size, segBytes, width)
	want := referenceLayout(size, segBytes, width)
	if got := g.numSegs; got != len(want) {
		t.Fatalf("size %d seg %d width %d: numSegs = %d, reference has %d", size, segBytes, width, got, len(want))
	}
	var pos int64
	for i, w := range want {
		off, length := g.segRange(i)
		if (byteRange{off, length}) != w {
			t.Fatalf("size %d seg %d width %d: segment %d = [%d,+%d), reference [%d,+%d)",
				size, segBytes, width, i, off, length, w.off, w.length)
		}
		if off != pos || length <= 0 || length > segBytes {
			t.Fatalf("size %d seg %d width %d: segment %d = [%d,+%d) after %d bytes (cap %d)",
				size, segBytes, width, i, off, length, pos, segBytes)
		}
		if i < width && segBytes > firstSegmentBytes && length != min(firstSegmentBytes, size-off) {
			t.Fatalf("size %d seg %d width %d: opening segment %d is %d bytes, want %d",
				size, segBytes, width, i, length, firstSegmentBytes)
		}
		if segBytes <= firstSegmentBytes && off != int64(i)*segBytes {
			t.Fatalf("size %d seg %d width %d: segment %d at %d, want the uniform layout's %d",
				size, segBytes, width, i, off, int64(i)*segBytes)
		}
		pos += length
	}
	if pos != size {
		t.Fatalf("size %d seg %d width %d: segments cover %d bytes", size, segBytes, width, pos)
	}
}

func TestStripeGeometryMatchesReferenceLoop(t *testing.T) {
	// The shapes the issue names, then random ones.
	for _, c := range []struct {
		size, segBytes int64
		width          int
	}{
		{64 << 20, 1 << 20, 4},              // the benchmark's read: 20 ramp + 61 steady
		{100 << 10, 1 << 20, 4},             // ends inside round 0
		{4*(32<<10) + 1, 1 << 20, 4},        // one byte into round 1
		{3968 << 10, 1 << 20, 4},            // ends exactly where the ramp does
		{(3968 << 10) + 1, 1 << 20, 4},      // one byte of steady state
		{1 << 20, 100_000, 3},               // SegmentBytes not a power of two
		{1 << 20, firstSegmentBytes, 4},     // no ramp: uniform
		{1 << 20, firstSegmentBytes + 1, 4}, // one round, then 32 KiB + 1
		{1000, 128, 2},                      // far below the first segment
		{1, 1 << 20, 8},
		{0, 1 << 20, 4},
	} {
		checkGeometry(t, c.size, c.segBytes, c.width)
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
		checkGeometry(t, size, segBytes, 1+r.Intn(8))
	}
}

func FuzzStripeGeometry(f *testing.F) {
	f.Add(int64(64<<20), int64(1<<20), 4)
	f.Add(int64(100<<10), int64(1<<20), 4)
	f.Add(int64(1<<20), int64(100_000), 3)
	f.Add(int64(1000), int64(128), 2)
	f.Add(int64(1<<20), int64(1)<<62, 8)
	f.Fuzz(func(t *testing.T, size, segBytes int64, width int) {
		if size < 0 || segBytes <= 0 || width < 1 || width > 8 {
			t.Skip()
		}
		if size/min(segBytes, firstSegmentBytes) > 1<<16 {
			t.Skip() // keep the reference loop short
		}
		checkGeometry(t, size, segBytes, width)
	})
}
