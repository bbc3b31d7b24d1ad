package mm

import (
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/testenv"
)

// atCap returns the shape the refused-replication path is measured on (it
// is bench/micro.go's): n RMs, file 0 committed on the first degree of
// them, so BeginReplication(0, _, degree) is refused by the cap.
func atCap(tb testing.TB, n, degree int) *Manager {
	tb.Helper()
	m := New()
	for id := ids.RMID(1); id <= ids.RMID(n); id++ {
		if err := m.RegisterRM(info(id), nil); err != nil {
			tb.Fatal(err)
		}
	}
	for id := ids.RMID(1); id <= ids.RMID(degree); id++ {
		if err := m.AddReplica(0, id); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

func wantAscending(t *testing.T, what string, got []ids.RMID, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: %d ids, want %d: %v", what, len(got), n, got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("%s not strictly ascending at %d: %v", what, i, got)
		}
	}
}

func idsOf(infos []ecnp.RMInfo) []ids.RMID {
	out := make([]ids.RMID, len(infos))
	for i, in := range infos {
		out[i] = in.ID
	}
	return out
}

// TestResourceListStaysOrdered: whatever order registrations arrive in,
// every RM-ordered answer is ascending, a re-registration neither moves
// nor duplicates its entry, and the liveness filter keeps the order.
func TestResourceListStaysOrdered(t *testing.T) {
	for name, arrivals := range map[string][]ids.RMID{
		"descending": {9, 8, 7, 6, 5, 4, 3, 2, 1},
		"shuffled":   {4, 9, 1, 7, 2, 8, 3, 6, 5},
	} {
		t.Run(name, func(t *testing.T) {
			clk := newFakeClock()
			m := New()
			m.SetClock(clk.Now)
			for _, id := range arrivals {
				if err := m.RegisterRM(info(id), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.AddReplica(0, 5); err != nil {
				t.Fatal(err)
			}
			wantAscending(t, "RMs", idsOf(m.RMs()), 9)
			wantAscending(t, "AllRMs", idsOf(m.AllRMs()), 9)
			wantAscending(t, "RMsWithout", m.RMsWithout(0), 8)

			// Re-register in the middle and at both ends.
			for _, id := range []ids.RMID{5, 1, 9} {
				again := info(id)
				again.Addr = "re-registered"
				if err := m.RegisterRM(again, []ids.FileID{0}); err != nil {
					t.Fatal(err)
				}
			}
			wantAscending(t, "RMs after re-registration", idsOf(m.RMs()), 9)
			wantAscending(t, "AllRMs after re-registration", idsOf(m.AllRMs()), 9)
			wantAscending(t, "RMsWithout after re-registration", m.RMsWithout(0), 6)
			if got, _ := m.RM(5); got.Addr != "re-registered" {
				t.Fatalf("re-registration did not refresh the record: %+v", got)
			}
			if all := m.AllRMs(); all[4].ID != 5 || all[4].Addr != "re-registered" {
				t.Fatalf("AllRMs serves a stale record at RM5's place: %+v", all[4])
			}

			// Dead RMs drop out of the live answers without disturbing
			// the order of the rest; AllRMs keeps them.
			m.SetLiveness(livenessCfg())
			clk.Advance(time.Second)
			for _, id := range []ids.RMID{2, 6, 9} {
				if err := m.Heartbeat(id); err != nil {
					t.Fatal(err)
				}
			}
			wantAscending(t, "live RMs", idsOf(m.RMs()), 3)
			wantAscending(t, "live RMsWithout", m.RMsWithout(0), 2)
			wantAscending(t, "AllRMs with dead entries", idsOf(m.AllRMs()), 9)
			if got := m.LiveCount(); got != 3 {
				t.Fatalf("LiveCount = %d, want 3", got)
			}
		})
	}
}

// TestRefusedReplicationAllocatesNothing: the two calls the source-side
// agent makes on every access of an RM under B_TH cost what they decide —
// the refusal is a preallocated value, the candidate list is its result
// slice and nothing else.
func TestRefusedReplicationAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	m := atCap(t, 256, 8)
	if got := testing.AllocsPerRun(100, func() {
		if m.BeginReplication(0, 100, 8) == nil {
			t.Fatal("reservation past the cap admitted")
		}
	}); got != 0 {
		t.Errorf("refused BeginReplication: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if n := len(m.RMsWithout(0)); n != 248 {
			t.Fatalf("RMsWithout: %d candidates, want 248", n)
		}
	}); got != 1 {
		t.Errorf("RMsWithout: %v allocs, want 1 (its result)", got)
	}
}
