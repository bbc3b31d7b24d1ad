package rm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/testenv"
	"dfsqos/internal/units"
)

// blockingMapper holds every caller of RMsWithout — a call only the
// source-side agent makes — until release is closed, and counts them.
type blockingMapper struct {
	ecnp.Mapper
	inside  atomic.Int32
	entered chan struct{} // one send per caller; sized to the callers
	release chan struct{}
}

func (b *blockingMapper) RMsWithout(file ids.FileID) []ids.RMID {
	b.inside.Add(1)
	b.entered <- struct{}{}
	<-b.release
	return b.Mapper.RMsWithout(file)
}

// TestConcurrentCFPsRunOneAgent: of any number of CFPs that find the RM
// saturated, idle as a replication endpoint and past its cooldown, one runs
// the agent; the others answer their bids without entering it or waiting
// for it. Without the busy flag they all pass the trigger test — it reads
// srcActive, which no one has raised yet — and all become sources.
func TestConcurrentCFPsRunOneAgent(t *testing.T) {
	const callers = 16
	bm := &blockingMapper{entered: make(chan struct{}, callers), release: make(chan struct{})}
	h := walkHarnessWrapped(t, replication.Rep(1, 8), 9,
		func(m *mm.Manager) ecnp.Mapper { bm.Mapper = m; return bm })
	src := h.rms[1]

	var wg sync.WaitGroup
	returned := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		req := ids.RequestID(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			src.HandleCFP(ecnp.CFP{Request: req, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
			returned <- struct{}{}
		}()
	}
	<-bm.entered // the agent is in, parked on the mapper

	// The other fifteen must come back while it is parked. The deadline
	// only bounds the failing case, where they are parked beside it.
	deadline := time.After(10 * time.Second)
	back := 0
	for back < callers-1 {
		select {
		case <-returned:
			back++
		case <-deadline:
			close(bm.release)
			wg.Wait()
			t.Fatalf("%d of %d CFPs returned while one agent ran; %d entered the agent, want 1",
				back, callers-1, bm.inside.Load())
		}
	}
	if got := bm.inside.Load(); got != 1 {
		t.Errorf("%d CFPs inside the agent, want 1", got)
	}
	close(bm.release)
	wg.Wait()

	if st := src.Stats(); st.CFPs != callers || st.RepTriggers != 1 {
		t.Fatalf("CFPs = %d, RepTriggers = %d; want %d and 1", st.CFPs, st.RepTriggers, callers)
	}
	src.mu.Lock()
	busy := src.agentBusy
	src.mu.Unlock()
	if busy {
		t.Fatal("the agent returned and left agentBusy set")
	}
}

// TestReplicationAttemptAtCapAllocations is one access of a saturated RM
// whose hot file already counts N_MAXR + 1 replicas, at the flash-crowd
// scenario's scale (256 RMs registered, in-process MM, static directory,
// DestRandom): the agent reads the count that says the file is at its cap
// and stops. That count is the one mapper call it makes: it asks for no
// candidates and no reservation, and draws nothing. Most of that
// scenario's attempts are this one. It allocates nothing, on either
// in-process MM: the agent ranks from its running top file.
func TestReplicationAttemptAtCapAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		name string
		mm   func(*mm.Manager) ecnp.Mapper
	}{
		{"Manager", func(m *mm.Manager) ecnp.Mapper { return m }},
		{"ShardedManager", func(*mm.Manager) ecnp.Mapper { return mm.NewShardedReplicated(4, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counter := &countingMapper{}
			h := walkHarnessWrapped(t, replication.Rep(1, 8), 256,
				func(m *mm.Manager) ecnp.Mapper { counter.Mapper = tc.mm(m); return counter },
				2, 3, 4, 5, 6, 7, 8, 9)
			src := h.rms[1]
			cfp := ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100}
			src.HandleCFP(cfp) // grow the agent's buffers
			const runs = 100
			if avg := testing.AllocsPerRun(runs, func() { src.HandleCFP(cfp) }); avg != 0 {
				t.Errorf("a capped replication attempt allocates %v times, want 0", avg)
			}
			// AllocsPerRun makes one warm-up call beside the runs it counts.
			if st := src.Stats(); counter.begins != 0 || st.RepTriggers != 0 || st.RepCapped != runs+2 {
				t.Fatalf("%d attempts made %d reservations, %d triggers and %d capped; want 0, 0 and %d",
					runs+2, counter.begins, st.RepTriggers, st.RepCapped, runs+2)
			}
			if counter.calls != runs+2 || counter.counts != runs+2 {
				t.Fatalf("%d capped attempts made %d mapper calls, %d of them ReplicaCount; want one each, ReplicaCount",
					runs+2, counter.calls, counter.counts)
			}
			if got := counter.ReplicaCount(0); got != 9 {
				t.Fatalf("replica count = %d, want 9 untouched", got)
			}
			// A pass over the file table would leave its buffer set.
			if src.fileCounts != nil {
				t.Fatalf("the agent passed over the file table (%d files counted), want its running top file", len(src.fileCounts))
			}
		})
	}
}
