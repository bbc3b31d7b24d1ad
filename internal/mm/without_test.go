package mm

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// withoutModel is RMsWithout the slow way: it shadows every operation the
// manager accepted and answers by asking, per registered RM in ascending
// order, "holds it? receiving it? alive?" — the per-RM lookups the manager
// itself made before it merged the resource list against the file's few
// holders.
type withoutModel struct {
	registered []ids.RMID // ascending
	holds      map[ids.FileID]map[ids.RMID]bool
	pending    map[ids.FileID]map[ids.RMID]bool
	lastBeat   map[ids.RMID]time.Time
	deadline   time.Duration // 0: liveness off
}

func (w *withoutModel) set(m map[ids.FileID]map[ids.RMID]bool, f ids.FileID, rm ids.RMID, on bool) {
	if m[f] == nil {
		m[f] = make(map[ids.RMID]bool)
	}
	if on {
		m[f][rm] = true
	} else {
		delete(m[f], rm)
	}
}

func (w *withoutModel) without(f ids.FileID, now time.Time) []ids.RMID {
	out := []ids.RMID{}
	for _, id := range w.registered {
		if w.holds[f][id] || w.pending[f][id] {
			continue
		}
		if w.deadline > 0 && now.Sub(w.lastBeat[id]) > w.deadline {
			continue
		}
		out = append(out, id)
	}
	return out
}

// livenessMapper is what the single and the sharded manager share beyond
// ecnp.Mapper.
type livenessMapper interface {
	ecnp.Mapper
	SetLiveness(LivenessConfig)
	SetClock(func() time.Time)
	Heartbeat(ids.RMID) error
	AppendRMsWithout([]ids.RMID, ids.FileID) []ids.RMID
}

// TestRMsWithoutMatchesPerRMModel drives random replica-map programs and
// checks every file's answer after every step.
func TestRMsWithoutMatchesPerRMModel(t *testing.T) {
	const (
		nRMs   = 24
		nFiles = 5
		steps  = 400
	)
	managers := map[string]func() livenessMapper{
		"Manager":                func() livenessMapper { return New() },
		"ShardedReplicated(4,2)": func() livenessMapper { return NewShardedReplicated(4, 2) },
	}
	for name, build := range managers {
		for _, live := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/liveness=%v", name, live), func(t *testing.T) {
				for seed := uint64(0); seed < 20; seed++ {
					src := rng.New(seed)
					clk := newFakeClock()
					m := build()
					m.SetClock(clk.Now)
					w := &withoutModel{
						holds:    make(map[ids.FileID]map[ids.RMID]bool),
						pending:  make(map[ids.FileID]map[ids.RMID]bool),
						lastBeat: make(map[ids.RMID]time.Time),
					}
					if live {
						m.SetLiveness(livenessCfg())
						w.deadline = livenessCfg().Deadline()
					}
					// Ids with gaps, registered in no particular order; one
					// RM starts out holding every file but the last, which
					// nobody holds.
					for _, p := range src.PermInto(make([]int, nRMs)) {
						id := ids.RMID(2 + 3*p)
						var files []ids.FileID
						if p == 0 {
							for f := ids.FileID(0); f < nFiles-1; f++ {
								files = append(files, f)
								w.set(w.holds, f, id, true)
							}
						}
						if err := m.RegisterRM(info(id), files); err != nil {
							t.Fatal(err)
						}
						w.registered = append(w.registered, id)
						w.lastBeat[id] = clk.Now()
					}
					slices.Sort(w.registered)

					for step := 0; step < steps; step++ {
						f := ids.FileID(src.Intn(nFiles))
						rm := w.registered[src.Intn(nRMs)]
						var op string
						switch k := src.Intn(6); {
						case k == 0 && !w.pending[f][rm]: // nobody imports a copy onto an RM that is receiving it
							op = "AddReplica"
							if m.AddReplica(f, rm) == nil {
								w.set(w.holds, f, rm, true)
							}
						case k == 1:
							op = "RemoveReplica"
							if m.RemoveReplica(f, rm) == nil {
								w.set(w.holds, f, rm, false)
							}
						case k == 2 || k == 3:
							op = "BeginReplication"
							if m.BeginReplication(f, rm, 8*src.Intn(2)) == nil {
								w.set(w.pending, f, rm, true)
							}
						case k == 4:
							op = "EndReplication"
							// Aim at a reservation that exists when there is one.
							for _, id := range w.registered {
								if w.pending[f][id] {
									rm = id
									break
								}
							}
							commit := src.Intn(2) == 0
							if m.EndReplication(f, rm, commit) == nil {
								w.set(w.pending, f, rm, false)
								if commit {
									w.set(w.holds, f, rm, true)
								}
							}
						case live:
							op = "Advance+Heartbeat"
							clk.Advance(time.Duration(src.Intn(120)) * time.Millisecond)
							if err := m.Heartbeat(rm); err != nil {
								t.Fatal(err)
							}
							w.lastBeat[rm] = clk.Now()
						}
						for file := ids.FileID(0); file < nFiles; file++ {
							got, want := m.RMsWithout(file), w.without(file, clk.Now())
							if got == nil || !slices.Equal(got, want) {
								t.Fatalf("seed %d step %d (%s %v %v): RMsWithout(%v) = %v, per-RM model %v",
									seed, step, op, f, rm, file, got, want)
							}
							// The append form keeps what dst held and
							// filters only what it appended.
							prefix := []ids.RMID{nRMs + 2, nRMs + 1}
							if got := m.AppendRMsWithout(prefix, file); !slices.Equal(got, append(slices.Clip(prefix), want...)) {
								t.Fatalf("seed %d step %d: AppendRMsWithout(%v, %v) = %v, want the prefix and %v",
									seed, step, prefix, file, got, want)
							}
						}
					}
				}
			})
		}
	}
}
