package dfsc

import (
	"sync"
	"testing"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// TestDoRoutesByOp: Do sends a metadata op to Probe (one MM round trip,
// done at once), a read to Access (lookup, CFP and open; the reservation
// held) and a write to Store (resource list, a CFP to each RM, store,
// open and registration; the file gains its replica).
func TestDoRoutesByOp(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Firm)
	for _, tc := range []struct {
		op                           workload.Op
		file                         ids.FileID
		messages, completed, holders int64
	}{
		{workload.OpMeta, 0, 2, 1, 1},
		{workload.OpRead, 0, 2 + 2 + 2, 0, 1},
		{workload.OpWrite, 3, 2 + 2*2 + 2 + 2 + 2, 0, 1},
	} {
		before := c.Stats()
		if out := c.Do(tc.op, tc.file); !out.OK {
			t.Fatalf("%v of %v: %s", tc.op, tc.file, out.Reason)
		}
		after := c.Stats()
		if d := after.Requests - before.Requests; d != 1 {
			t.Errorf("%v counted %d requests, want 1", tc.op, d)
		}
		if d := after.Messages - before.Messages; d != tc.messages {
			t.Errorf("%v counted %d messages, want %d", tc.op, d, tc.messages)
		}
		if d := after.Completed - before.Completed; d != tc.completed {
			t.Errorf("%v completed %d requests at once, want %d", tc.op, d, tc.completed)
		}
		if n := h.mapper.ReplicaCount(tc.file); int64(n) != tc.holders {
			t.Errorf("after %v, %v has %d replica(s), want %d", tc.op, tc.file, n, tc.holders)
		}
	}
	if h.rms[1].Allocated() == 0 {
		t.Error("the read holds no reservation")
	}
}

// sent is one send call Replay made.
type sent struct {
	req      workload.Request
	due, got time.Time
}

// TestReplaySendsEachOnceInOrder: Replay sends every request of the
// pattern exactly once, not before its arrival, and each DFSC's in the
// pattern's order.
func TestReplaySendsEachOnceInOrder(t *testing.T) {
	p := &workload.Pattern{}
	for i := 0; i < 30; i++ {
		p.Requests = append(p.Requests, workload.Request{
			AtSec: float64(i) * 0.001, User: ids.UserID(i), DFSC: ids.DFSCID(i % 3)})
	}
	var mu sync.Mutex
	var log []sent
	Replay(p, 1, func(r workload.Request, due time.Time) {
		mu.Lock()
		log = append(log, sent{r, due, time.Now()})
		mu.Unlock()
	})
	if len(log) != len(p.Requests) {
		t.Fatalf("%d sends for %d requests", len(log), len(p.Requests))
	}
	seen := map[ids.UserID]bool{}
	last := map[ids.DFSCID]ids.UserID{}
	for _, s := range log {
		if seen[s.req.User] {
			t.Fatalf("request %d sent twice", s.req.User)
		}
		seen[s.req.User] = true
		if prev, ok := last[s.req.DFSC]; ok && prev > s.req.User {
			t.Fatalf("%v sent request %d after %d", s.req.DFSC, s.req.User, prev)
		}
		last[s.req.DFSC] = s.req.User
		if s.got.Before(s.due) {
			t.Fatalf("request %d sent %v before its arrival", s.req.User, s.due.Sub(s.got))
		}
	}
}

// TestReplayDFSCsRunAtOnce: a send blocked on DFSC 1 holds back DFSC 1's
// later request, not DFSC 2's arrival. DFSC 1's first send returns only
// once DFSC 2's has run.
func TestReplayDFSCsRunAtOnce(t *testing.T) {
	p := &workload.Pattern{Requests: []workload.Request{
		{AtSec: 0, User: 0, DFSC: 1},
		{AtSec: 0.01, User: 1, DFSC: 2},
		{AtSec: 0.02, User: 2, DFSC: 1},
	}}
	released := make(chan struct{})
	var mu sync.Mutex
	var log []sent
	Replay(p, 1, func(r workload.Request, due time.Time) {
		if r.User == 0 {
			select {
			case <-released:
			case <-time.After(5 * time.Second):
				t.Error("DFSC 2's request was not sent while DFSC 1's first was blocked")
			}
		}
		mu.Lock()
		log = append(log, sent{r, due, time.Now()})
		mu.Unlock()
		if r.User == 1 {
			close(released)
		}
	})
	if len(log) != 3 || log[0].req.User != 1 || log[1].req.User != 0 || log[2].req.User != 2 {
		t.Fatalf("send order %v, want DFSC 2's, then DFSC 1's two", log)
	}
	if late := log[0].got.Sub(log[0].due); late > time.Second {
		t.Fatalf("DFSC 2's request went %v late", late)
	}
}
