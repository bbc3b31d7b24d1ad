// Package fsapi reproduces the paper's FUSE integration surface (§III-A1)
// in Go. The paper mounts the DFSC through FUSE and implements every file
// operation as a callback: "the query operation for a resource list from
// the DFSC to the MM is implemented in the readdir operation and the CFP
// sending and resource selection algorithms are implemented in open
// operation. In addition, read and write operations will launch the data
// access with the RM determined in open operation."
//
// Kernel modules cannot be loaded in this environment, so the callbacks
// are the methods of an in-process Mount bound to a dfsc.Client: Readdir
// queries the MM, Open runs the CFP/bid/selection negotiation and holds
// the winner's reservation in a read handle (dfsc.OpenRead), Read is a
// ranged read of the client's read engine on that handle, and Release
// returns the reservation. This substitution is documented in DESIGN.md
// §2.
package fsapi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/units"
)

// FileInfo is the getattr result.
type FileInfo struct {
	Name    string
	Size    units.Size
	Bitrate units.BytesPerSec
	// DurationSec is the playback duration (occupation time).
	DurationSec float64
	// Replicas is the current replica count known to the MM.
	Replicas int
}

// Handle identifies an open file.
type Handle uint64

// openFailovers is how many times one open handle may move to another
// replica when the RM serving it dies.
const openFailovers = 2

var errDestroyed = errors.New("fsapi: mount destroyed")

// Mount is the FUSE-callback surface of the paper's DFSC, bound to a
// dfsc.Client.
type Mount struct {
	client   *dfsc.Client
	cat      *catalog.Catalog
	streamer dfsc.RangeStreamer
	lookup   func(ids.FileID) int // replica count probe (may be nil)

	mu      sync.Mutex
	nextH   Handle
	open    map[Handle]*dfsc.Reader
	byName  map[string]ids.FileID
	destroy bool
}

// Options configures a mount.
type Options struct {
	Client  *dfsc.Client
	Catalog *catalog.Catalog
	// Streamer is the data plane reads stream through: the live
	// Directory, or an in-process fake.
	Streamer dfsc.RangeStreamer
	// ReplicaCount optionally reports the live replica count for
	// Getattr; nil leaves FileInfo.Replicas at zero.
	ReplicaCount func(ids.FileID) int
}

// NewMount builds the mount.
func NewMount(opt Options) (*Mount, error) {
	if opt.Client == nil || opt.Catalog == nil || opt.Streamer == nil {
		return nil, fmt.Errorf("fsapi: Client, Catalog and Streamer are required")
	}
	m := &Mount{
		client:   opt.Client,
		cat:      opt.Catalog,
		streamer: opt.Streamer,
		lookup:   opt.ReplicaCount,
		open:     make(map[Handle]*dfsc.Reader),
		byName:   make(map[string]ids.FileID, opt.Catalog.Len()),
	}
	for _, f := range opt.Catalog.Files() {
		m.byName[f.Name] = f.ID
	}
	return m, nil
}

// Getattr returns a file's metadata.
func (m *Mount) Getattr(name string) (FileInfo, error) {
	id, err := m.resolve(name)
	if err != nil {
		return FileInfo{}, err
	}
	f := m.cat.File(id)
	info := FileInfo{
		Name:        f.Name,
		Size:        f.Size,
		Bitrate:     f.Bitrate,
		DurationSec: f.DurationSec,
	}
	if m.lookup != nil {
		info.Replicas = m.lookup(id)
	}
	return info, nil
}

// Readdir lists the volume and refreshes the MM resource list — the
// paper wires the MM query into this callback.
func (m *Mount) Readdir() ([]string, error) {
	if err := m.live(); err != nil {
		return nil, err
	}
	names := make([]string, 0, m.cat.Len())
	for _, f := range m.cat.Files() {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names, nil
}

// Open negotiates a QoS-assured data access — CFP fan-out, bid scoring
// and a bandwidth reservation on the winner: the paper's one RM chosen in
// open, its reservation held by a one-lane read handle until Release.
func (m *Mount) Open(name string) (Handle, error) {
	id, err := m.resolve(name)
	if err != nil {
		return 0, err
	}
	if err := m.live(); err != nil {
		return 0, err
	}
	r, err := m.client.OpenRead(m.streamer, id, dfsc.StripeConfig{Width: 1, MaxFailovers: openFailovers})
	if err != nil {
		return 0, fmt.Errorf("fsapi: open %s: %w", name, err)
	}
	m.mu.Lock()
	if m.destroy {
		// Destroy ran while the open negotiated, so it could not see this
		// handle: release the reservation here.
		m.mu.Unlock()
		r.Close()
		return 0, errDestroyed
	}
	m.nextH++
	h := m.nextH
	m.open[h] = r
	m.mu.Unlock()
	return h, nil
}

// Read transfers file data from the serving RM: a ranged read on the
// handle Open made.
func (m *Mount) Read(h Handle, p []byte, off int64) (int, error) {
	m.mu.Lock()
	r, ok := m.open[h]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("fsapi: read on closed handle %d", h)
	}
	return r.ReadAt(p, off)
}

// Release ends the access and returns the reserved bandwidth.
func (m *Mount) Release(h Handle) error {
	m.mu.Lock()
	r, ok := m.open[h]
	delete(m.open, h)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("fsapi: release of unknown handle %d", h)
	}
	return r.Close()
}

// Destroy tears the mount down, releasing every open handle.
func (m *Mount) Destroy() {
	m.mu.Lock()
	open := m.open
	m.open = make(map[Handle]*dfsc.Reader)
	m.destroy = true
	m.mu.Unlock()
	for _, r := range open {
		r.Close()
	}
}

// live fails once the mount is destroyed.
func (m *Mount) live() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.destroy {
		return errDestroyed
	}
	return nil
}

func (m *Mount) resolve(name string) (ids.FileID, error) {
	id, ok := m.byName[name]
	if !ok {
		return ids.NoneFile, fmt.Errorf("fsapi: %s: no such file", name)
	}
	return id, nil
}
