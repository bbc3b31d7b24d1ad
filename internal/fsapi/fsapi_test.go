package fsapi

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// content is the simulated mount's file content: byte k of file f is a
// pure function of (f, k), so any span a read returns can be checked.
func content(file ids.FileID, p []byte, off int64) {
	seed := uint64(file)*0x9e3779b97f4a7c15 + 0x85ebca6b
	for i := range p {
		k := uint64(off + int64(i))
		x := (k + seed) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		p[i] = byte(x)
	}
}

// contentStreamer is the simulated mount's data plane: it serves content
// in process, with no transport, checksummed like a live RM's ranges.
type contentStreamer struct{ cat *catalog.Catalog }

func (s contentStreamer) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, off int64, w io.Writer, sum *uint64) (int64, error) {
	return s.StreamRange(ctx, rm, file, req, off, int64(s.cat.File(file).Size)-off, w, sum)
}

func (s contentStreamer) StreamRange(_ context.Context, _ ids.RMID, file ids.FileID, _ ids.RequestID, off, length int64, w io.Writer, sum *uint64) (int64, error) {
	p := make([]byte, min(length, int64(s.cat.File(file).Size)-off))
	content(file, p, off)
	n, err := w.Write(p)
	*sum = wire.ChecksumUpdate(*sum, p[:n])
	return int64(n), err
}

// mountHarness builds a two-RM simulated cluster and mounts it.
type mountHarness struct {
	sched *simtime.Scheduler
	mount *Mount
	cat   *catalog.Catalog
	rms   map[ids.RMID]*rm.RM
}

func newMountHarness(t *testing.T) *mountHarness {
	return newMountHarnessPartial(t, -1, nil)
}

// newMountHarnessPartial places every catalog file on both RMs except the
// given one (-1: place all). wrap, when non-nil, wraps the MM the client
// queries.
func newMountHarnessPartial(t *testing.T, skip ids.FileID, wrap func(ecnp.Mapper) ecnp.Mapper) *mountHarness {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 5
	cat, err := catalog.Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler()
	adapter := ecnp.SimScheduler{S: sched}
	mapper := mm.New()
	dir := make(ecnp.StaticDirectory)
	rms := make(map[ids.RMID]*rm.RM)
	master := rng.New(5)
	for _, id := range []ids.RMID{1, 2} {
		files := make(map[ids.FileID]rm.FileMeta)
		for _, f := range cat.Files() {
			if f.ID == skip {
				continue
			}
			files[f.ID] = rm.FileMeta{Bitrate: f.Bitrate, Size: f.Size, DurationSec: f.DurationSec}
		}
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: units.Mbps(100), StorageBytes: units.GB},
			Scheduler:   adapter,
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        master.Split(id.String()),
			Files:       files,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Register()
		node.SetDirectory(dir)
		dir[id] = node
		rms[id] = node
	}
	var clientMapper ecnp.Mapper = mapper
	if wrap != nil {
		clientMapper = wrap(mapper)
	}
	client, err := dfsc.New(dfsc.Options{
		ID: 1, Mapper: clientMapper, Directory: dir, Scheduler: adapter,
		Catalog: cat, Policy: selection.RemOnly, Scenario: qos.Firm,
		Rand: master.Split("client"),
	})
	if err != nil {
		t.Fatal(err)
	}
	mount, err := NewMount(Options{
		Client:       client,
		Catalog:      cat,
		Streamer:     contentStreamer{cat},
		ReplicaCount: mapper.ReplicaCount,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &mountHarness{sched: sched, mount: mount, cat: cat, rms: rms}
}

func TestNewMountValidation(t *testing.T) {
	if _, err := NewMount(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestReaddirListsCatalog(t *testing.T) {
	h := newMountHarness(t)
	names, err := h.mount.Readdir()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("readdir lists %d entries", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatal("readdir not sorted")
	}
}

func TestGetattr(t *testing.T) {
	h := newMountHarness(t)
	f := h.cat.File(0)
	info, err := h.mount.Getattr(f.Name)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != f.Size || info.Bitrate != f.Bitrate || info.DurationSec != f.DurationSec {
		t.Fatalf("Getattr = %+v, want catalog values", info)
	}
	if info.Replicas != 2 {
		t.Fatalf("Replicas = %d, want 2", info.Replicas)
	}
	if _, err := h.mount.Getattr("nope.mp4"); err == nil {
		t.Fatal("Getattr of missing file succeeded")
	}
}

func TestOpenReadReleaseLifecycle(t *testing.T) {
	h := newMountHarness(t)
	f := h.cat.File(0)
	handle, err := h.mount.Open(f.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The reservation is live on exactly one RM.
	total := h.rms[1].Allocated() + h.rms[2].Allocated()
	if total != f.Bitrate {
		t.Fatalf("allocated %v across RMs, want the bitrate %v", total, f.Bitrate)
	}

	// Sequential reads deliver the full file, deterministically.
	var got bytes.Buffer
	buf := make([]byte, 64*1024)
	var off int64
	for {
		n, err := h.mount.Read(handle, buf, off)
		got.Write(buf[:n])
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got.Len() != int(f.Size) {
		t.Fatalf("read %d bytes, want %d", got.Len(), f.Size)
	}
	// Rereading a slice matches.
	part := make([]byte, 100)
	if _, err := h.mount.Read(handle, part, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, got.Bytes()[1000:1100]) {
		t.Fatal("random-offset read mismatches sequential read")
	}

	if err := h.mount.Release(handle); err != nil {
		t.Fatal(err)
	}
	if h.rms[1].Allocated()+h.rms[2].Allocated() != 0 {
		t.Fatal("bandwidth not returned on release")
	}
	if _, err := h.mount.Read(handle, buf, 0); err == nil {
		t.Fatal("read after release succeeded")
	}
	if err := h.mount.Release(handle); err == nil {
		t.Fatal("double release succeeded")
	}
}

// TestConcurrentReadsOnOneHandle: four goroutines reading random spans of
// one open handle at once each get exactly the file's bytes.
func TestConcurrentReadsOnOneHandle(t *testing.T) {
	h := newMountHarness(t)
	f := h.cat.File(0)
	handle, err := h.mount.Open(f.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.mount.Release(handle)
	size := int64(f.Size)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(g))
			for i := 0; i < 25; i++ {
				off := r.Int63n(size)
				p := make([]byte, 1+r.Intn(200<<10))
				n, err := h.mount.Read(handle, p, off)
				if err != nil && err != io.EOF {
					t.Errorf("read [%d,+%d): %v", off, len(p), err)
					return
				}
				want := make([]byte, min(int64(len(p)), size-off))
				content(f.ID, want, off)
				if !bytes.Equal(p[:n], want) {
					t.Errorf("read [%d,+%d) returned %d bytes that differ from the file's %d", off, len(p), n, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOpenMissingFile(t *testing.T) {
	h := newMountHarness(t)
	if _, err := h.mount.Open("missing.mp4"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestReadPastEnd(t *testing.T) {
	h := newMountHarness(t)
	f := h.cat.File(1)
	handle, err := h.mount.Open(f.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.mount.Release(handle)
	buf := make([]byte, 10)
	if _, err := h.mount.Read(handle, buf, int64(f.Size)); err != io.EOF {
		t.Fatalf("read at EOF: %v, want io.EOF", err)
	}
	if _, err := h.mount.Read(handle, buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	// Short tail read.
	n, err := h.mount.Read(handle, buf, int64(f.Size)-3)
	if n != 3 || err != io.EOF {
		t.Fatalf("tail read = (%d, %v), want (3, EOF)", n, err)
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	h := newMountHarness(t)
	for i := 0; i < 3; i++ {
		if _, err := h.mount.Open(h.cat.File(ids.FileID(i)).Name); err != nil {
			t.Fatal(err)
		}
	}
	if h.mount.OpenHandles() != 3 {
		t.Fatalf("%d handles", h.mount.OpenHandles())
	}
	h.mount.Destroy()
	if h.mount.OpenHandles() != 0 {
		t.Fatal("handles leaked through Destroy")
	}
	if h.rms[1].Allocated()+h.rms[2].Allocated() != 0 {
		t.Fatal("bandwidth leaked through Destroy")
	}
	if _, err := h.mount.Open(h.cat.File(0).Name); err == nil {
		t.Fatal("open after destroy succeeded")
	}
	if _, err := h.mount.Readdir(); err == nil {
		t.Fatal("readdir after destroy succeeded")
	}
}

// destroyingMapper destroys the mount from inside the MM lookup of an
// open: a Destroy that lands while the open negotiates.
type destroyingMapper struct {
	ecnp.Mapper
	mount *Mount
}

func (d *destroyingMapper) Lookup(file ids.FileID) []ids.RMID {
	d.mount.Destroy()
	return d.Mapper.Lookup(file)
}

// TestOpenRacingDestroyReleases: an Open whose negotiation a Destroy
// overtakes must fail and give its reservation back, not hand out a live
// handle on a destroyed mount.
func TestOpenRacingDestroyReleases(t *testing.T) {
	dm := &destroyingMapper{}
	h := newMountHarnessPartial(t, -1, func(m ecnp.Mapper) ecnp.Mapper {
		dm.Mapper = m
		return dm
	})
	dm.mount = h.mount
	if _, err := h.mount.Open(h.cat.File(0).Name); err == nil {
		t.Fatal("open on a mount destroyed while it negotiated succeeded")
	}
	if got := h.rms[1].Allocated() + h.rms[2].Allocated(); got != 0 {
		t.Fatalf("%v still reserved after the open lost the race with Destroy", got)
	}
	if h.mount.OpenHandles() != 0 {
		t.Fatal("a handle outlived Destroy")
	}
}

func TestCreateStoresUnplacedFile(t *testing.T) {
	h := newMountHarness(t)
	// The harness places every catalog file on both RMs, so Create of an
	// existing file must refuse...
	if err := h.mount.Create(h.cat.File(0).Name); err == nil {
		t.Fatal("Create of an already-stored file succeeded")
	}
	if err := h.mount.Create("missing.mp4"); err == nil {
		t.Fatal("Create of an unknown name succeeded")
	}
}

func TestCreateThenOpen(t *testing.T) {
	// A harness variant with file 4 unplaced.
	h := newMountHarnessPartial(t, 4, nil)
	name := h.cat.File(4).Name
	if _, err := h.mount.Open(name); err == nil {
		t.Fatal("Open of an unplaced file succeeded")
	}
	if err := h.mount.Create(name); err != nil {
		t.Fatal(err)
	}
	// The ingest reservation drains after the write duration.
	h.sched.Run()
	handle, err := h.mount.Open(name)
	if err != nil {
		t.Fatalf("Open after Create: %v", err)
	}
	if err := h.mount.Release(handle); err != nil {
		t.Fatal(err)
	}
	info, _ := h.mount.Getattr(name)
	if info.Replicas != 1 {
		t.Fatalf("Replicas = %d after Create", info.Replicas)
	}
}
