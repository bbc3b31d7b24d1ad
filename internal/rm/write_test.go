package rm

import (
	"errors"
	"reflect"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/rng"
	"dfsqos/internal/simtime"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
)

// Tenants of writeRM: one capped on bandwidth, one on bytes.
const (
	bwCapped    = ids.TenantID(1)
	bytesCapped = ids.TenantID(2)
)

// writeRM is one registered 10 Mbit/s RM with a 1 GB disk holding file 0,
// its tenant ledger capping bwCapped at 1 Mbit/s and bytesCapped at 1 MB,
// behind wrap(its MM) as its mapper.
func writeRM(t *testing.T, wrap func(*mm.Manager) ecnp.Mapper) (*RM, *mm.Manager) {
	t.Helper()
	mgr := mm.New()
	tenants := tenant.NewLedger()
	tenants.Set(bwCapped, tenant.Quota{Bandwidth: units.Mbps(1), Bytes: tenant.NoLimit})
	tenants.Set(bytesCapped, tenant.Quota{Bandwidth: tenant.NoLimit, Bytes: int64(units.MB)})
	r, err := New(Options{
		Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(10), StorageBytes: units.GB},
		Scheduler:   ecnp.SimScheduler{S: simtime.NewScheduler()},
		Mapper:      wrap(mgr),
		History:     history.DefaultConfig(),
		Replication: staticCfg(),
		Rand:        rng.New(1),
		Files:       map[ids.FileID]FileMeta{0: fm(units.Mbps(1), 8)},
		Tenants:     tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(); err != nil {
		t.Fatal(err)
	}
	return r, mgr
}

// refusingMapper refuses every registration.
type refusingMapper struct{ ecnp.Mapper }

func (refusingMapper) AddReplica(ids.FileID, ids.RMID) error {
	return errors.New("mm: registration refused")
}

// rmState is what a write must leave as it found it when it fails.
type rmState struct {
	holds    bool
	storage  units.Size
	files    int
	tenants  []tenant.Usage
	reserved int
	alloc    units.BytesPerSec
	opens    int64
}

func stateOf(r *RM, f ids.FileID) rmState {
	return rmState{r.HasFile(f), r.StorageUsed(), r.NumFiles(), r.TenantUsage(),
		r.ActiveReservations(), r.Allocated(), r.Stats().Opens}
}

// write is a write-open of file f: 1 Mbit/s for 8 s, 1 MB.
func write(req ids.RequestID, f ids.FileID) ecnp.OpenRequest {
	return ecnp.OpenRequest{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: 8, SizeBytes: units.MB, Firm: true}
}

func TestWriteOpenStoresReservesAndRegisters(t *testing.T) {
	r, mgr := writeRM(t, func(m *mm.Manager) ecnp.Mapper { return m })
	req := write(1, 5)
	req.Tenant = bytesCapped
	if res := r.Open(req); !res.OK {
		t.Fatal(res.Reason)
	}
	if !r.HasFile(5) || r.StorageUsed() != fm(units.Mbps(1), 8).Size+units.MB {
		t.Fatalf("holds file5 %v, storage %v after the write", r.HasFile(5), r.StorageUsed())
	}
	if hs := mgr.Lookup(5); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("the MM maps file5 on %v, want [RM1]", hs)
	}
	if r.ActiveReservations() != 1 || r.Allocated() != units.Mbps(1) || r.Stats().Opens != 1 {
		t.Fatalf("%d reservation(s), %v allocated, %d open(s) after the write", r.ActiveReservations(), r.Allocated(), r.Stats().Opens)
	}
	if u := r.TenantUsage()[1]; u.Tenant != bytesCapped || u.Bytes != int64(units.MB) || u.Streams != 1 {
		t.Fatalf("tenant row %+v after the write", u)
	}
	if err := r.Check(true); err != nil {
		t.Fatal(err)
	}
	r.Close(1)
	if !r.HasFile(5) {
		t.Fatal("closing the ingest dropped the file")
	}
}

// TestWriteOpenFailureLeavesNothing: every refusal of a write-open, and a
// failure of its disk step or its MM registration after the commit,
// leaves the file, storage, tenant rows and reservations as they were and
// maps nothing.
func TestWriteOpenFailureLeavesNothing(t *testing.T) {
	direct := func(m *mm.Manager) ecnp.Mapper { return m }
	refusing := func(m *mm.Manager) ecnp.Mapper { return refusingMapper{m} }
	for _, tc := range []struct {
		name    string
		wrap    func(*mm.Manager) ecnp.Mapper
		setup   func(t *testing.T, r *RM)
		req     ecnp.OpenRequest
		want    ecnp.Refusal
		removed bool // the disk hook's undo ran
	}{
		{name: "duplicate request", wrap: direct, req: write(1, 5), want: ecnp.ErrDuplicateRequest,
			setup: func(t *testing.T, r *RM) { open(t, r, 1, units.Mbps(1)) }},
		{name: "already stored", wrap: direct, req: write(1, 0), want: ecnp.ErrAlreadyStored},
		{name: "already incoming", wrap: direct, req: write(1, 5), want: ecnp.ErrAlreadyStored,
			setup: func(t *testing.T, r *RM) {
				if !r.OfferReplica(ecnp.ReplicaOffer{Replication: 9, File: 5, SizeBytes: units.MB, Bitrate: units.Mbps(1), DurationSec: 8, Rate: units.Mbps(1), Source: 2}) {
					t.Fatal("offer refused")
				}
			}},
		{name: "disk full", wrap: direct, req: func() ecnp.OpenRequest { w := write(1, 5); w.SizeBytes = units.GB; return w }(),
			want: ecnp.ErrDiskFull},
		{name: "firm capacity", wrap: direct, req: func() ecnp.OpenRequest { w := write(1, 5); w.Bitrate = units.Mbps(11); return w }(),
			want: ecnp.ErrFirmCapacity},
		{name: "tenant bandwidth", wrap: direct, req: func() ecnp.OpenRequest { w := write(1, 5); w.Bitrate, w.Tenant = units.Mbps(2), bwCapped; return w }(),
			want: ecnp.ErrTenantBandwidth},
		{name: "tenant bytes", wrap: direct, req: func() ecnp.OpenRequest { w := write(1, 5); w.SizeBytes, w.Tenant = 2*units.MB, bytesCapped; return w }(),
			want: ecnp.ErrTenantBytes},
		{name: "disk step fails", wrap: direct, req: write(1, 5), want: ecnp.ErrDiskFull,
			setup: func(t *testing.T, r *RM) {
				r.SetDiskHooks(func(ids.FileID, units.Size) error { return errors.New("vdisk: overflow") },
					func(ids.FileID) { t.Error("undid a disk step that failed") })
			}},
		{name: "registration fails", wrap: refusing, req: write(1, 5)},
		{name: "registration fails after the disk step", wrap: refusing, req: write(1, 5), removed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, mgr := writeRM(t, tc.wrap)
			var provisioned, removed []ids.FileID
			if tc.removed {
				r.SetDiskHooks(
					func(f ids.FileID, _ units.Size) error { provisioned = append(provisioned, f); return nil },
					func(f ids.FileID) { removed = append(removed, f) })
			}
			if tc.setup != nil {
				tc.setup(t, r)
			}
			before := stateOf(r, tc.req.File)
			refusals := r.Stats().Refusals
			res := r.Open(tc.req)
			if res.OK || res.Code != tc.want {
				t.Fatalf("write-open: %+v, want code %d", res, tc.want)
			}
			if after := stateOf(r, tc.req.File); !reflect.DeepEqual(after, before) {
				t.Fatalf("state after the failed write\n got %+v\nwant %+v", after, before)
			}
			if tc.req.File != 0 && mgr.ReplicaCount(tc.req.File) != 0 {
				t.Fatalf("the MM counts %d replica(s) of a failed write", mgr.ReplicaCount(tc.req.File))
			}
			if tc.want != 0 {
				refusals[tc.want]++
			}
			if got := r.Stats().Refusals; got != refusals {
				t.Fatalf("refusals %v, want %v", got, refusals)
			}
			if tc.removed && (len(provisioned) != 1 || !reflect.DeepEqual(removed, provisioned)) {
				t.Fatalf("provisioned %v, removed %v: the disk step was not undone", provisioned, removed)
			}
			if err := r.Check(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteUndoSparesAReadmission: a write whose disk step fails undoes
// its own reservation only. During the step the client closes the write
// and a read re-admits under the same request ID, at the same instant,
// rate and tenant, so only the admission serial tells the two
// reservations apart; the failed write must leave the read's standing.
func TestWriteUndoSparesAReadmission(t *testing.T) {
	r, _ := writeRM(t, func(m *mm.Manager) ecnp.Mapper { return m })
	w := write(7, 5)
	read := ecnp.OpenRequest{Request: 7, File: 0, Bitrate: w.Bitrate, DurationSec: w.DurationSec, Firm: true}
	r.SetDiskHooks(func(ids.FileID, units.Size) error {
		r.Close(7)
		if res := r.Open(read); !res.OK {
			t.Errorf("re-admission during the disk step: %s", res.Reason)
		}
		return errors.New("vdisk: no room")
	}, func(ids.FileID) {})
	if res := r.Open(w); res.OK || res.Code != ecnp.ErrDiskFull {
		t.Fatalf("write-open whose disk step fails: %+v, want %s", res, ecnp.ErrDiskFull.Label())
	}
	if n, alloc := r.ActiveReservations(), r.Allocated(); n != 1 || alloc != read.Bitrate {
		t.Fatalf("%d reservation(s), %v allocated after the write was undone; want the re-admitted read's 1 and %v", n, alloc, read.Bitrate)
	}
	if r.HasFile(5) {
		t.Fatal("the undone write left its file")
	}
	r.Close(7)
	if n, alloc := r.ActiveReservations(), r.Allocated(); n != 0 || alloc != 0 {
		t.Fatalf("%d reservation(s), %v allocated after the read closed", n, alloc)
	}
	if err := r.Check(true); err != nil {
		t.Fatal(err)
	}
}
