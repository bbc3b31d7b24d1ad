package live

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
)

// mmStep is one metadata call and its answer, rendered so two planes can
// be compared: RM addresses are left out (each cluster binds its own
// ports) and an error shows as its refusal and whether a member served it.
type mmStep struct {
	name string
	call func(m *MMClient) string
}

func renderErr(err error) string {
	if err == nil {
		return "ok"
	}
	return fmt.Sprintf("refused(%s) remote=%v", ecnp.RefusalOf(err).Label(), transport.IsRemote(err))
}

// mmClientCluster is the cluster both planes serve: RM 1 holds files 0
// and 1, RM 2 holds files 0 and 2, and files 3 to 7 are held by nobody
// until the test registers RM 9 with them.
func mmClientCluster(t *testing.T, group bool) *Local {
	return startLocal(t, LocalSpec{
		Catalog:    testCatalog(t, 21, 8, 1, 5, 10),
		Caps:       []units.BytesPerSec{units.Mbps(50), units.Mbps(80)},
		Holders:    map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}, 2: {2}},
		ShardGroup: group,
	})
}

// TestMMClientOneAddressAndGroupAgree runs one ecnp.Mapper call sequence
// through an MMClient over a single MM and through one over a shard group:
// a single address is a ring of one, so every answer must match.
func TestMMClientOneAddressAndGroupAgree(t *testing.T) {
	// far is a file member 0 of the group does not hold: a client that
	// asked one member for everything would get its answers wrong.
	far := ids.FileID(-1)
	ring := mm.NewRing(localShards)
	for f := ids.FileID(3); f < 8 && far < 0; f++ {
		if !slices.Contains(ring.SuccessorsOfFile(int64(f), localShardRep), 0) {
			far = f
		}
	}
	if far < 0 {
		t.Fatal("member 0 holds every file of RM 9")
	}
	steps := []mmStep{
		{"register RM9 holding f3-f7", func(m *MMClient) string {
			return renderErr(m.RegisterRM(ecnp.RMInfo{ID: 9, Capacity: units.Mbps(10), Addr: "127.0.0.1:9"}, []ids.FileID{3, 4, 5, 6, 7}))
		}},
		{"lookup every file", func(m *MMClient) string {
			var out []string
			for f := ids.FileID(0); f < 8; f++ {
				out = append(out, fmt.Sprint(m.Lookup(f)))
			}
			return fmt.Sprint(out)
		}},
		{"lookup far", func(m *MMClient) string { return fmt.Sprint(m.Lookup(far)) }},
		{"count far", func(m *MMClient) string { return fmt.Sprint(m.ReplicaCount(far)) }},
		{"add far on RM1", func(m *MMClient) string { return renderErr(m.AddReplica(far, 1)) }},
		{"rms without far", func(m *MMClient) string { return fmt.Sprint(m.RMsWithout(far)) }},
		{"add f1 on RM9", func(m *MMClient) string { return renderErr(m.AddReplica(1, 9)) }},
		{"count f1 after add", func(m *MMClient) string { return fmt.Sprint(m.ReplicaCount(1)) }},
		{"remove f1 from RM9", func(m *MMClient) string { return renderErr(m.RemoveReplica(1, 9)) }},
		{"count f1 after remove", func(m *MMClient) string { return fmt.Sprint(m.ReplicaCount(1)) }},
		{"rms without f0", func(m *MMClient) string { return fmt.Sprint(m.RMsWithout(0)) }},
		{"begin f2 on RM9 cap 2", func(m *MMClient) string { return renderErr(m.BeginReplication(2, 9, 2)) }},
		{"end f2 on RM9 commit", func(m *MMClient) string { return renderErr(m.EndReplication(2, 9, true)) }},
		{"lookup f2 after commit", func(m *MMClient) string { return fmt.Sprint(m.Lookup(2)) }},
		{"begin f0 on RM9 cap 2", func(m *MMClient) string {
			err := m.BeginReplication(0, 9, 2)
			return fmt.Sprintf("%s is-cap=%v", renderErr(err), errors.Is(err, ecnp.ErrReplicaCap))
		}},
		{"end f0 on RM9 without begin", func(m *MMClient) string { return renderErr(m.EndReplication(0, 9, false)) }},
		{"heartbeat RM2", func(m *MMClient) string { return renderErr(m.Heartbeat(2)) }},
		{"heartbeat unknown RM77", func(m *MMClient) string { return fmt.Sprint(transport.IsRemote(m.Heartbeat(77))) }},
		{"resource list", func(m *MMClient) string {
			var out []string
			for _, info := range m.RMs() {
				out = append(out, fmt.Sprintf("%v@%v", info.ID, info.Capacity))
			}
			return fmt.Sprint(out)
		}},
	}
	single, group := mmClientCluster(t, false), mmClientCluster(t, true)
	answers := make(map[string]string, len(steps))
	for _, s := range steps {
		one, many := s.call(single.Mapper), s.call(group.Mapper)
		if one != many {
			t.Errorf("%s: one address answers %q, the group %q", s.name, one, many)
		}
		answers[s.name] = one
	}
	// The sequence exercised what it names, not two identical failures.
	for step, want := range map[string]string{
		"lookup far":             "[RM9]",
		"rms without far":        "[RM2]",
		"count f1 after add":     "2",
		"lookup f2 after commit": "[RM2 RM9]",
		"begin f0 on RM9 cap 2":  "refused(cap) remote=true is-cap=true",
		"heartbeat unknown RM77": "true",
	} {
		if got := answers[step]; got != want {
			t.Errorf("%s: %q, want %q", step, got, want)
		}
	}
}

// TestMMClientSingleMMDown stops the one MM of a single-address client: a
// lookup's error still classifies as a transport failure (dfsc counts it
// under dfsqos_dfsc_lookup_errors_total{class="conn"} or "timeout"), and
// the client counts the call as having exhausted its owner set. A refusal
// the MM served beforehand is remote, which keeps the heartbeat loop's
// re-register path.
func TestMMClientSingleMMDown(t *testing.T) {
	l := mmClientCluster(t, false)
	met := NewMMRouteMetrics(nil)
	l.Mapper.SetMetrics(met)
	if err := l.Mapper.Heartbeat(77); !transport.IsRemote(err) {
		t.Fatalf("heartbeat of an unknown RM: %v, want a served refusal", err)
	}
	l.MM.Close()
	_, err := l.Mapper.LookupErrContext(context.Background(), 0)
	var ce *transport.ConnError
	if err == nil || transport.IsRemote(err) || !(transport.IsTimeout(err) || errors.As(err, &ce)) {
		t.Fatalf("lookup with the MM down: %v, want a timeout or connection error", err)
	}
	if got := met.Exhausted.Value(); got != 1 {
		t.Fatalf("exhausted = %d after one failed lookup, want 1", got)
	}
	if got := met.Retries.Value(); got != 0 {
		t.Fatalf("retries = %d with one owner, want 0", got)
	}
	if err := l.Mapper.Heartbeat(1); err == nil || transport.IsRemote(err) {
		t.Fatalf("heartbeat with the MM down: %v, want a transport failure", err)
	}
}
