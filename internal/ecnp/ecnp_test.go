package ecnp

import (
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

func TestRMInfoValidate(t *testing.T) {
	good := RMInfo{ID: 1, Capacity: units.Mbps(18), StorageBytes: units.GB}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []RMInfo{
		{ID: -1, Capacity: units.Mbps(18)},
		{ID: 1, Capacity: 0},
		{ID: 1, Capacity: units.Mbps(18), StorageBytes: -1},
	}
	for i, info := range bad {
		if err := info.Validate(); err == nil {
			t.Errorf("case %d: invalid RMInfo accepted", i)
		}
	}
}

func TestSimSchedulerAdapter(t *testing.T) {
	s := simtime.NewScheduler()
	a := SimScheduler{S: s}
	if a.Now() != 0 {
		t.Fatalf("Now = %v", a.Now())
	}
	fired := false
	cancel := a.After(5, func(now simtime.Time) {
		if now != 5 {
			t.Errorf("fired at %v, want 5", now)
		}
		fired = true
	})
	s.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if cancel() {
		t.Fatal("cancel of fired event returned true")
	}
	// Cancel before firing prevents execution.
	fired2 := false
	cancel2 := a.After(5, func(simtime.Time) { fired2 = true })
	if !cancel2() {
		t.Fatal("cancel returned false for pending event")
	}
	s.Run()
	if fired2 {
		t.Fatal("canceled event fired")
	}
}

// stubProvider implements Provider for directory tests.
type stubProvider struct{ id ids.RMID }

func (s *stubProvider) Info() RMInfo                          { return RMInfo{ID: s.id, Capacity: units.Mbps(1)} }
func (s *stubProvider) HandleCFP(CFP) selection.Bid           { return selection.Bid{RM: s.id} }
func (s *stubProvider) Open(OpenRequest) OpenResult           { return OpenResult{OK: true} }
func (s *stubProvider) Close(ids.RequestID)                   {}
func (s *stubProvider) OfferReplica(ReplicaOffer) bool        { return false }
func (s *stubProvider) FinishReplica(ids.ReplicationID, bool) {}
func (s *stubProvider) StoreFile(StoreRequest) error          { return nil }

// TestStaticDirectory pins the table's contract: a set slot answers its
// provider, and id 0 (RM ids are 1-based), ids.NoneRM, an id past the
// table and an emptied slot report absent.
func TestStaticDirectory(t *testing.T) {
	var dir StaticDirectory
	if _, ok := dir.Provider(1); ok {
		t.Fatal("the zero table holds RM1")
	}
	dir.Set(1, &stubProvider{id: 1})
	dir.Set(3, &stubProvider{id: 3})
	for _, id := range []ids.RMID{1, 3} {
		if p, ok := dir.Provider(id); !ok || p.Info().ID != id {
			t.Fatalf("Provider(%v) = (%v, %v)", id, p, ok)
		}
	}
	dir.Set(3, nil)
	for _, id := range []ids.RMID{0, ids.NoneRM, 2, 3, 4, 1 << 30} {
		if p, ok := dir.Provider(id); ok || p != nil {
			t.Errorf("Provider(%v) = (%v, %v), want absent", id, p, ok)
		}
	}
}

// TestStaticDirectoryIsShared: a holder of the pointer sees an RM set
// after it was handed out, including one past the table's old end, and
// an RM that was replaced.
func TestStaticDirectoryIsShared(t *testing.T) {
	dir := new(StaticDirectory)
	dir.Set(1, &stubProvider{id: 1})
	var held Directory = dir
	dir.Set(9, &stubProvider{id: 9})
	replaced := &stubProvider{id: 1}
	dir.Set(1, replaced)
	if p, ok := held.Provider(9); !ok || p.Info().ID != 9 {
		t.Fatalf("RM9 set after the hand-out: Provider(9) = (%v, %v)", p, ok)
	}
	if p, _ := held.Provider(1); p != replaced {
		t.Fatalf("Provider(1) = %p, want the replacement %p", p, replaced)
	}
}

// TestStaticDirectorySetRejectsNegativeID: a negative id has no slot.
func TestStaticDirectorySetRejectsNegativeID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(NoneRM) did not panic")
		}
	}()
	new(StaticDirectory).Set(ids.NoneRM, &stubProvider{})
}
