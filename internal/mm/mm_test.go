package mm

import (
	"testing"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/units"
)

func info(id ids.RMID) ecnp.RMInfo {
	return ecnp.RMInfo{ID: id, Capacity: units.Mbps(18), StorageBytes: 16 * units.GB}
}

func TestRegisterAndList(t *testing.T) {
	m := New()
	for _, id := range []ids.RMID{3, 1, 2} {
		if err := m.RegisterRM(info(id), nil); err != nil {
			t.Fatal(err)
		}
	}
	rms := m.RMs()
	if len(rms) != 3 {
		t.Fatalf("RMs() len %d, want 3", len(rms))
	}
	for i, want := range []ids.RMID{1, 2, 3} {
		if rms[i].ID != want {
			t.Fatalf("RMs() order %v", rms)
		}
	}
	if _, ok := m.RM(2); !ok {
		t.Fatal("RM(2) not found")
	}
	if _, ok := m.RM(9); ok {
		t.Fatal("RM(9) should not exist")
	}
}

func TestRegisterValidates(t *testing.T) {
	m := New()
	if err := m.RegisterRM(ecnp.RMInfo{ID: 1, Capacity: 0}, nil); err == nil {
		t.Fatal("zero-capacity registration accepted")
	}
	if err := m.RegisterRM(ecnp.RMInfo{ID: -1, Capacity: units.Mbps(1)}, nil); err == nil {
		t.Fatal("invalid-id registration accepted")
	}
}

func TestRegisterMergesFiles(t *testing.T) {
	m := New()
	if err := m.RegisterRM(info(1), []ids.FileID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterRM(info(2), []ids.FileID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(1); len(got) != 2 {
		t.Fatalf("Lookup(1) = %v, want both RMs", got)
	}
	// Re-registration with the same files must be idempotent.
	if err := m.RegisterRM(info(1), []ids.FileID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.ReplicaCount(1); got != 2 {
		t.Fatalf("ReplicaCount(1) = %d after re-register, want 2", got)
	}
}

func TestLookupOrdering(t *testing.T) {
	m := New()
	m.RegisterRM(info(5), []ids.FileID{7})
	m.RegisterRM(info(2), []ids.FileID{7})
	m.RegisterRM(info(9), []ids.FileID{7})
	got := m.Lookup(7)
	want := []ids.RMID{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lookup = %v, want %v", got, want)
		}
	}
}

func TestRMsWithout(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{0})
	m.RegisterRM(info(2), nil)
	m.RegisterRM(info(3), nil)
	got := m.RMsWithout(0)
	want := []ids.RMID{2, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("RMsWithout = %v, want %v", got, want)
	}
	if got := m.RMsWithout(99); len(got) != 3 {
		t.Fatalf("RMsWithout(unknown file) = %v, want all RMs", got)
	}
}

func TestAddRemoveReplica(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{0})
	m.RegisterRM(info(2), nil)
	if err := m.AddReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddReplica(0, 2); err == nil {
		t.Fatal("duplicate AddReplica accepted")
	}
	if err := m.AddReplica(0, 42); err == nil {
		t.Fatal("AddReplica to unregistered RM accepted")
	}
	if got := m.ReplicaCount(0); got != 2 {
		t.Fatalf("ReplicaCount = %d, want 2", got)
	}
	if err := m.RemoveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveReplica(0, 2); err == nil {
		t.Fatal("removing last replica accepted")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithPlacementIsDeepCopy(t *testing.T) {
	p := catalog.NewPlacement()
	p.Add(0, 1)
	p.Add(0, 2)
	m := NewWithPlacement(p)
	m.RegisterRM(info(1), nil)
	m.RegisterRM(info(2), nil)
	m.RegisterRM(info(3), nil)
	if err := m.AddReplica(0, 3); err != nil {
		t.Fatal(err)
	}
	if p.Degree(0) != 2 {
		t.Fatal("manager mutated the caller's placement")
	}
	if m.ReplicaCount(0) != 3 {
		t.Fatal("manager did not record the new replica")
	}
}

func TestFilesOn(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{5, 2, 9})
	got := m.FilesOn(1)
	want := []ids.FileID{2, 5, 9}
	if len(got) != 3 {
		t.Fatalf("FilesOn = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FilesOn = %v, want sorted %v", got, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New()
	for i := 1; i <= 8; i++ {
		m.RegisterRM(info(ids.RMID(i)), []ids.FileID{ids.FileID(i % 4)})
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				m.Lookup(ids.FileID(i % 4))
				m.RMsWithout(ids.FileID(i % 4))
				m.RMs()
				m.ReplicaCount(ids.FileID(i % 4))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
