package vdisk

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dfsqos/internal/blkio"
	"dfsqos/internal/units"
)

// Used returns the bytes consumed by stored files.
func (d *Disk) Used() units.Size {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.used
}

// Write stores a private copy of data under name, charging the write
// throttle; the caller may reuse its buffer afterwards.
func (d *Disk) Write(ctx context.Context, name string, data []byte) error {
	if err := d.ctrl.Wait(ctx, d.group, blkio.Write, len(data)); err != nil {
		return err
	}
	c := NewContent(int64(len(data)))
	c.Write(data) // cannot overrun: c was made for exactly these bytes
	return d.WriteRaw(name, c)
}

// Delete removes a file, reclaiming its space.
func (d *Disk) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("vdisk: %q not found", name)
	}
	d.used -= f.size
	delete(d.files, name)
	f.unpin()
	return nil
}

// List returns the stored file names in sorted order.
func (d *Disk) List() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Reader returns an io.Reader streaming the file through the throttle in
// chunkSize pieces.
func (d *Disk) Reader(ctx context.Context, name string, chunkSize int) (io.Reader, units.Size, error) {
	size, err := d.Stat(name)
	if err != nil {
		return nil, 0, err
	}
	if chunkSize <= 0 {
		chunkSize = 64 * 1024
	}
	return &reader{d: d, ctx: ctx, name: name, chunk: chunkSize, size: int64(size)}, size, nil
}

type reader struct {
	d     *Disk
	ctx   context.Context
	name  string
	chunk int
	off   int64
	size  int64
}

func (r *reader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	if len(p) > r.chunk {
		p = p[:r.chunk]
	}
	n, err := r.d.ReadAt(r.ctx, r.name, p, r.off)
	r.off += int64(n)
	return n, err
}

// ReadAt reads len(p) bytes from the file at offset off through the read
// throttle. It returns io.EOF at or past the end of the file, matching the
// io.ReaderAt contract.
func (d *Disk) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return d.ReadAtGroup(ctx, d.group, name, p, off)
}
