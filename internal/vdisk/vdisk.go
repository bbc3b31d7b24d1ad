// Package vdisk implements the virtual storage an RM serves files from in
// live mode: an in-memory block store whose every read and write is routed
// through a blkio throttle group, the way each Xen VM's loopback device is
// bound to a blkio.throttle group in the paper's testbed (§VI-A).
//
// File contents are synthesized deterministically from the file name, so a
// multi-gigabyte corpus costs no setup time while checksums still verify
// end-to-end transfer integrity.
package vdisk

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dfsqos/internal/blkio"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// Disk is one RM's virtual block device.
type Disk struct {
	mu       sync.RWMutex
	capacity units.Size
	used     units.Size
	files    map[string]*file
	ctrl     *blkio.Controller
	group    *blkio.Group
}

type file struct {
	size units.Size
	// seed drives the deterministic content generator.
	seed uint64
	// data holds explicit contents when the file was written rather than
	// provisioned; nil means synthesized content.
	data *Content
	// sum memoizes the whole-file checksum (valid when sumOK). File
	// contents are immutable after creation — every write path installs a
	// fresh *file — so the cache never goes stale. It spares each data
	// stream a full re-hash of the file it just served.
	sum   uint64
	sumOK bool
}

// New creates a disk with the given capacity whose I/O is throttled by the
// named group on ctrl (created with the supplied read/write limits, like
// joining a loop-device to a blkio cgroup).
func New(capacity units.Size, ctrl *blkio.Controller, group string, readBps, writeBps units.BytesPerSec) (*Disk, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("vdisk: non-positive capacity %v", capacity)
	}
	g, err := ctrl.SetGroup(group, readBps, writeBps)
	if err != nil {
		return nil, err
	}
	return &Disk{
		capacity: capacity,
		files:    make(map[string]*file),
		ctrl:     ctrl,
		group:    g,
	}, nil
}

// Capacity returns the disk size.
func (d *Disk) Capacity() units.Size { return d.capacity }

// Controller exposes the blkio controller the disk throttles through, so a
// server can attach per-reservation groups (and a root pool) to the same
// tree the disk's default group lives in.
func (d *Disk) Controller() *blkio.Controller { return d.ctrl }

// DefaultGroup returns the group every un-routed I/O charges — the one New
// created. Reads routed to a per-reservation group via ReadAtGroup bypass
// it entirely.
func (d *Disk) DefaultGroup() *blkio.Group { return d.group }

// Provision creates a file with deterministic synthetic contents of the
// given size without performing throttled writes (the corpus exists before
// the experiment starts). It fails when the disk would overflow.
func (d *Disk) Provision(name string, size units.Size) error {
	if size < 0 {
		return fmt.Errorf("vdisk: negative size for %q", name)
	}
	return d.replace(name, &file{size: size, seed: seedOf(name)})
}

// Remove deletes name, returning its bytes to the disk; an absent name is
// a no-op. A reader already streaming the file keeps its blocks until it
// is done (see file.pin).
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		delete(d.files, name)
		d.used -= f.size
		f.unpin()
	}
}

// replace installs f under name, taking the place of any file already
// there. An overwrite is charged only the difference — the capacity check
// runs against used − old + new — and nothing is touched unless it passes,
// so a refused overwrite leaves the old contents and the accounting as
// they were.
func (d *Disk) replace(name string, f *file) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	used := d.used
	old, ok := d.files[name]
	if ok {
		used -= old.size
	}
	if used+f.size > d.capacity {
		return fmt.Errorf("vdisk: storing %q (%v) overflows disk (%v of %v used)",
			name, f.size, d.used, d.capacity)
	}
	d.files[name] = f
	d.used = used + f.size
	if ok {
		old.unpin()
	}
	return nil
}

// pin holds a written file's blocks against recycling while a read uses
// them; unpin lets them go. The disk's own entry is one pin, taken by
// WriteRaw and dropped when the file is replaced or deleted, so the blocks
// return to blockPool when both the file and its last reader are gone. A
// reader pins under the lock it found the file under, after which no
// replace can be the last to unpin. Synthesized files hold no blocks.
func (f *file) pin() {
	if f.data != nil {
		f.data.refs.Add(1)
	}
}

func (f *file) unpin() {
	if f.data != nil && f.data.refs.Add(-1) == 0 {
		f.data.recycle()
	}
}

// blockSize is the unit a written file is stored in. A block is allocated
// only once the bytes before it have filled its predecessor, so receiving
// a file holds at most one block more than the bytes that have arrived,
// whatever size was declared; and 1 MiB is sixteen 64 KiB chunks, so a
// stream of those fills each block exactly and every chunk is received in
// place.
const blockSize = 1 << 20

// blockPool recycles the full-size blocks of files that are gone (see
// file.pin), so a stream of uploads reuses memory instead of having the
// runtime zero a fresh megabyte per block. A recycled block's stale bytes
// lie past its content's length, where nothing reads.
var blockPool = sync.Pool{New: func() any { return new([blockSize]byte) }}

// Content accumulates a written file's bytes in the layout the disk stores
// them in: fixed-size blocks, every one full but the last, allocated as
// the bytes arrive. Like bufio.Writer it offers its spare capacity through
// AvailableBuffer: a receiver may read straight into that and pass the
// result to Write, which then extends the content over bytes already in
// place instead of copying them. A Content holds at most the size it was
// made for. Disk.WriteRaw adopts it.
type Content struct {
	blocks [][]byte
	size   int64        // bytes written
	limit  int64        // bytes the content may hold
	refs   atomic.Int32 // once stored: the disk's entry and each read in progress (file.pin)
}

// NewContent returns an empty content that will hold up to limit bytes.
// Nothing is allocated until the first byte is asked room for.
func NewContent(limit int64) *Content { return &Content{limit: limit} }

// Len returns the number of bytes written.
func (c *Content) Len() int64 { return c.size }

// AvailableBuffer returns the current block's spare capacity, empty, for
// a receiver to read into and then pass to Write. When that block is full
// it first allocates the next one — the last sized to what the limit
// leaves, not to a whole block. Once the content holds its limit it
// returns nil.
func (c *Content) AvailableBuffer() []byte {
	if c.size >= c.limit {
		return nil
	}
	if n := len(c.blocks); n == 0 || len(c.blocks[n-1]) == cap(c.blocks[n-1]) {
		var b []byte
		if rest := c.limit - c.size; rest < blockSize {
			b = make([]byte, 0, rest)
		} else {
			b = blockPool.Get().(*[blockSize]byte)[:0]
		}
		c.blocks = append(c.blocks, b)
	}
	b := c.blocks[len(c.blocks)-1]
	return b[len(b):]
}

// Write appends p. Bytes already at the content's tail, where a receiver
// that read into AvailableBuffer left them, are taken where they lie;
// anything else is copied, across as many blocks as it spans. A write
// that would take the content past its limit is refused whole.
func (c *Content) Write(p []byte) (int, error) {
	if int64(len(p)) > c.limit-c.size {
		return 0, fmt.Errorf("vdisk: write of %d bytes overruns the content (%d of %d held)", len(p), c.size, c.limit)
	}
	for n := 0; n < len(p); {
		spare := c.AvailableBuffer()
		spare = spare[:cap(spare)]
		var k int
		if &p[n] == &spare[0] {
			k = min(len(spare), len(p)-n) // received in place
		} else {
			k = copy(spare, p[n:])
		}
		last := len(c.blocks) - 1
		c.blocks[last] = c.blocks[last][:len(c.blocks[last])+k]
		c.size += int64(k)
		n += k
	}
	return len(p), nil
}

// copyAt fills p from the content's bytes at off; the caller has clamped
// p to the content.
func (c *Content) copyAt(p []byte, off int64) {
	for len(p) > 0 {
		k := copy(p, c.blocks[off/blockSize][off%blockSize:])
		p = p[k:]
		off += int64(k)
	}
}

// recycle hands the content's full-size blocks to blockPool; the content
// is empty afterwards. Only the last unpin calls it.
func (c *Content) recycle() {
	for _, b := range c.blocks {
		if cap(b) == blockSize {
			blockPool.Put((*[blockSize]byte)(b[:blockSize]))
		}
	}
	c.blocks, c.size = nil, 0
}

// checksum folds the content through the wire checksum, block by block.
func (c *Content) checksum() uint64 {
	sum := wire.ChecksumBasis
	for _, b := range c.blocks {
		sum = wire.ChecksumUpdate(sum, b)
	}
	return sum
}

// Stat returns a file's size.
func (d *Disk) Stat(name string) (units.Size, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("vdisk: %q not found", name)
	}
	return f.size, nil
}

// ReadAtGroup is ReadAt charging the given blkio group instead of the
// disk's default: the per-reservation routing a work-conserving server
// uses so each admitted stream is paced by its own assured/ceil pair
// while idle siblings' headroom is borrowable. g must belong to the
// disk's controller.
func (d *Disk) ReadAtGroup(ctx context.Context, g *blkio.Group, name string, p []byte, off int64) (int, error) {
	return d.readAt(ctx, g, name, p, off)
}

// readAt is the one body of the disk's reads: it clamps p to the file,
// charges g for the bytes it will serve (no group: uncharged), and fills
// them from the stored or synthesized contents. It returns io.EOF at or
// past the end of the file and with the read that reaches it.
func (d *Disk) readAt(ctx context.Context, g *blkio.Group, name string, p []byte, off int64) (int, error) {
	d.mu.RLock()
	f, ok := d.files[name]
	if ok {
		f.pin()
	}
	d.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("vdisk: %q not found", name)
	}
	defer f.unpin()
	if off < 0 {
		return 0, fmt.Errorf("vdisk: negative offset %d", off)
	}
	if off >= int64(f.size) {
		return 0, io.EOF
	}
	n := len(p)
	if rem := int64(f.size) - off; int64(n) > rem {
		n = int(rem)
	}
	if g != nil {
		if err := d.ctrl.Wait(ctx, g, blkio.Read, n); err != nil {
			return 0, err
		}
	}
	if f.data != nil {
		f.data.copyAt(p[:n], off)
	} else {
		fillSynthetic(p[:n], f.seed, off)
	}
	var err error
	if off+int64(n) == int64(f.size) {
		err = io.EOF
	}
	return n, err
}

// ReadAtRaw reads without charging the throttle group. It exists for the
// replication reserve path: the paper sets B_REV aside for replication
// traffic, so replica copies are paced by their own budget (the 1.8 Mbit/s
// transfer rate) rather than the VM's QoS throttle.
func (d *Disk) ReadAtRaw(name string, p []byte, off int64) (int, error) {
	return d.readAt(context.TODO(), nil, name, p, off)
}

// WriteRaw stores c's bytes as the file's contents without charging the
// write throttle, for replica ingestion over the B_REV reserve. The disk
// adopts c rather than copying it — an ingested object is received once,
// into the blocks it is then stored in — so the caller gives up ownership:
// it must not write to c afterwards, whether or not the store is refused.
func (d *Disk) WriteRaw(name string, c *Content) error {
	f := &file{size: units.Size(c.size), data: c}
	f.pin()
	if err := d.replace(name, f); err != nil {
		f.unpin()
		return err
	}
	return nil
}

// Checksum computes the whole-file data checksum — the wire package's
// CRC-32C fold (wire.ChecksumUpdate from wire.ChecksumBasis), the same
// function every stream end verifies against — without throttling
// (integrity checks are not disk I/O). The result is memoized per file —
// contents are immutable once created — so repeated streams of the same
// file pay the full pass only once; with the fold in hardware that pass
// is bounded by synthesizing the content, not by summing it.
func (d *Disk) Checksum(name string) (uint64, error) {
	// The memo is read under the same lock its publisher writes it under:
	// two cold readers of one file race otherwise.
	d.mu.RLock()
	f, ok := d.files[name]
	var sum uint64
	var memo bool
	if ok {
		sum, memo = f.sum, f.sumOK
		f.pin()
	}
	d.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("vdisk: %q not found", name)
	}
	defer f.unpin()
	if memo {
		return sum, nil
	}
	if f.data != nil {
		sum = f.data.checksum()
	} else {
		sum = wire.ChecksumBasis
		buf := make([]byte, 64*1024)
		for off := int64(0); off < int64(f.size); off += int64(len(buf)) {
			n := int64(len(buf))
			if rem := int64(f.size) - off; n > rem {
				n = rem
			}
			fillSynthetic(buf[:n], f.seed, off)
			sum = wire.ChecksumUpdate(sum, buf[:n])
		}
	}
	// Publish the memo. Racing fills compute identical values; the entry
	// may have been replaced meanwhile, in which case the write lands on
	// the orphaned struct and the new contents recompute on demand.
	d.mu.Lock()
	if cur, ok := d.files[name]; ok && cur == f {
		cur.sum, cur.sumOK = sum, true
	}
	d.mu.Unlock()
	return sum, nil
}

// seedOf hashes a file name into a content seed.
func seedOf(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h | 1
}

// fillSynthetic writes the deterministic content bytes of a file with the
// given seed starting at offset off. Byte k of the file is byte k%8 of a
// cheap 64-bit mix of the seed and block k/8, so any slice can be
// generated independently of how the file is cut into reads. The bulk
// writes out four independent mixes per 32 bytes, so their multiplies
// overlap in the pipeline (≈ 2× one mix per step; a loop over the four is
// not unrolled by the compiler and loses most of that), and steps the
// first multiply by synthMul, an add per block (≈ 15 % more). The
// generator sits under every streamed chunk: this is per-byte read cost.
func fillSynthetic(p []byte, seed uint64, off int64) {
	k := uint64(off)
	i := 0
	// Ragged head up to an 8-byte block boundary.
	for i < len(p) && k%8 != 0 {
		p[i] = synthByte(k, seed)
		i++
		k++
	}
	// Four blocks per step, then the remaining full blocks.
	m := uint64(synthMul)
	x := (k/8 + seed) * m
	for ; len(p)-i >= 32; i, k, x = i+32, k+32, x+4*m {
		q := p[i : i+32 : i+32]
		binary.LittleEndian.PutUint64(q[0:8], synthMix(x))
		binary.LittleEndian.PutUint64(q[8:16], synthMix(x+m))
		binary.LittleEndian.PutUint64(q[16:24], synthMix(x+2*m))
		binary.LittleEndian.PutUint64(q[24:32], synthMix(x+3*m))
	}
	for ; len(p)-i >= 8; i, k, x = i+8, k+8, x+m {
		binary.LittleEndian.PutUint64(p[i:i+8], synthMix(x))
	}
	// Ragged tail.
	for i < len(p) {
		p[i] = synthByte(k, seed)
		i++
		k++
	}
}

// synthMul is the content mix's first multiplier.
const synthMul = 0x9e3779b97f4a7c15

// synthWord mixes (block, seed) into the 64-bit content word covering file
// bytes [8*block, 8*block+8).
func synthWord(block, seed uint64) uint64 { return synthMix((block + seed) * synthMul) }

// synthMix finishes the content mix of x = (block+seed)·synthMul.
func synthMix(x uint64) uint64 {
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// synthByte extracts content byte k from its block's word.
func synthByte(k, seed uint64) byte {
	return byte(synthWord(k/8, seed) >> (8 * (k % 8)))
}
