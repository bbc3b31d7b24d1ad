package mm

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
)

func TestBeginEndReplicationLifecycle(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{0})
	m.RegisterRM(info(2), nil)

	if err := m.BeginReplication(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	// Pending counts toward ReplicaCount but not Lookup.
	if got := m.ReplicaCount(0); got != 2 {
		t.Fatalf("ReplicaCount = %d during transfer, want 2", got)
	}
	if got := m.Lookup(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Lookup = %v during transfer, want committed holder only", got)
	}
	if got := m.PendingCount(0); got != 1 {
		t.Fatalf("PendingCount = %d", got)
	}
	// The pending destination is excluded from further candidates.
	for _, rm := range m.RMsWithout(0) {
		if rm == 2 {
			t.Fatal("pending destination offered as candidate")
		}
	}
	// Commit turns it into a real replica.
	if err := m.EndReplication(0, 2, true); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(0); len(got) != 2 {
		t.Fatalf("Lookup = %v after commit", got)
	}
	if m.PendingCount(0) != 0 {
		t.Fatal("pending entry leaked after commit")
	}
}

func TestBeginReplicationRejections(t *testing.T) {
	m := New()
	reg := telemetry.NewRegistry()
	m.SetMetrics(NewMetrics(reg))
	m.RegisterRM(info(1), []ids.FileID{0})
	m.RegisterRM(info(2), nil)
	m.RegisterRM(info(3), nil)

	if err := m.BeginReplication(0, 9, 0); !errors.Is(err, ecnp.ErrUnregisteredRM) {
		t.Fatalf("unregistered destination: %v, want ErrUnregisteredRM", err)
	}
	if err := m.BeginReplication(0, 1, 0); !errors.Is(err, ecnp.ErrAlreadyHolds) {
		t.Fatalf("existing holder as destination: %v, want ErrAlreadyHolds", err)
	}
	if err := m.BeginReplication(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginReplication(0, 2, 0); !errors.Is(err, ecnp.ErrAlreadyReceiving) {
		t.Fatalf("duplicate pending destination: %v, want ErrAlreadyReceiving", err)
	}
	// The destination's own state is checked before the file's: a holder
	// of a file at its cap is told it holds it.
	if err := m.BeginReplication(0, 1, 2); !errors.Is(err, ecnp.ErrAlreadyHolds) {
		t.Fatalf("holder of a capped file: %v, want ErrAlreadyHolds", err)
	}
	if err := m.BeginReplication(0, 3, 2); !errors.Is(err, ecnp.ErrReplicaCap) {
		t.Fatalf("third replica under cap 2: %v, want ErrReplicaCap", err)
	}
	// One increment per refusal, on the child of the reason returned.
	text := exposition(t, reg)
	for _, want := range []string{
		`dfsqos_mm_replication_refusals_total{reason="unregistered"} 1`,
		`dfsqos_mm_replication_refusals_total{reason="holds"} 2`,
		`dfsqos_mm_replication_refusals_total{reason="receiving"} 1`,
		`dfsqos_mm_replication_refusals_total{reason="cap"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// seriesValue reads one series, named with its labels as the exposition
// spells them, off reg's exposition.
func seriesValue(t *testing.T, reg *telemetry.Registry, series string) float64 {
	t.Helper()
	text := exposition(t, reg)
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s:\n%s", series, text)
	return 0
}

func TestBeginReplicationEnforcesCap(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{0})
	m.RegisterRM(info(2), nil)
	m.RegisterRM(info(3), nil)
	m.RegisterRM(info(4), nil)

	// Cap 2: one committed + one pending fills it.
	if err := m.BeginReplication(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginReplication(0, 3, 2); !errors.Is(err, ecnp.ErrReplicaCap) {
		t.Fatalf("cap overshoot: %v, want ErrReplicaCap", err)
	}
	// An uncapped reservation still works.
	if err := m.BeginReplication(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	// Abort frees a slot under the cap.
	m.EndReplication(0, 3, false)
	m.EndReplication(0, 2, false)
	if err := m.BeginReplication(0, 4, 2); err != nil {
		t.Fatalf("reservation after aborts refused: %v", err)
	}
}

func TestEndReplicationWithoutBegin(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{0})
	if err := m.EndReplication(0, 1, true); !errors.Is(err, ecnp.ErrNoPendingReplication) {
		t.Fatalf("EndReplication without reservation: %v, want ErrNoPendingReplication", err)
	}
}

func TestConcurrentReservationsRespectCap(t *testing.T) {
	m := New()
	m.RegisterRM(info(1), []ids.FileID{0})
	for id := ids.RMID(2); id <= 17; id++ {
		m.RegisterRM(info(id), nil)
	}
	const cap = 4
	done := make(chan bool, 16)
	for id := ids.RMID(2); id <= 17; id++ {
		id := id
		go func() {
			done <- m.BeginReplication(0, id, cap) == nil
		}()
	}
	won := 0
	for i := 0; i < 16; i++ {
		if <-done {
			won++
		}
	}
	// Exactly cap−1 reservations may join the single committed replica.
	if won != cap-1 {
		t.Fatalf("%d concurrent reservations succeeded, want %d", won, cap-1)
	}
	if got := m.ReplicaCount(0); got != cap {
		t.Fatalf("ReplicaCount = %d, want the cap %d", got, cap)
	}
}

func TestShardedPendingSemantics(t *testing.T) {
	m := NewSharded(3)
	m.RegisterRM(info(1), []ids.FileID{0, 1, 2})
	m.RegisterRM(info(2), nil)
	for f := ids.FileID(0); f < 3; f++ {
		if err := m.BeginReplication(f, 2, 2); err != nil {
			t.Fatalf("file %v: %v", f, err)
		}
		if got := m.ReplicaCount(f); got != 2 {
			t.Fatalf("file %v count %d", f, got)
		}
		if err := m.EndReplication(f, 2, true); err != nil {
			t.Fatalf("file %v commit: %v", f, err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
