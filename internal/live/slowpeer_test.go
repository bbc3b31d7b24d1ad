package live

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// stallRM is a wire-speaking fake RM server whose CFP handler sleeps past
// any reasonable negotiation deadline before answering with the best bid
// in the cluster. It registers with the MM like a real RM, so the client
// discovers and dials it through the normal directory path.
type stallRM struct {
	ln    net.Listener
	delay time.Duration
	opens atomic.Int32
}

func startStallRM(t *testing.T, delay time.Duration) *stallRM {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallRM{ln: ln, delay: delay}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn)
				for {
					msg, err := wc.Read()
					if err != nil {
						return
					}
					switch msg.Kind {
					case wire.KindCFP:
						time.Sleep(s.delay)
						cfp := msg.Payload.(ecnp.CFP)
						// The best B_rem in the cluster — if this bid made
						// the deadline it would win the negotiation.
						bid := selection.Bid{RM: 3, Rem: units.Mbps(90), Req: cfp.Bitrate, HasReplica: true}
						if err := wc.Write(wire.KindBid, bid); err != nil {
							return
						}
					case wire.KindOpen:
						s.opens.Add(1)
						if err := wc.Write(wire.KindOpenResult, ecnp.OpenResult{OK: true}); err != nil {
							return
						}
					default:
						if err := wc.Write(wire.KindAck, wire.Ack{}); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return s
}

func (s *stallRM) close() { s.ln.Close() }

// TestLiveSlowPeerDoesNotDelayOpen is the end-to-end slow-peer scenario
// over real TCP: three registered holders, one of which stalls its CFP
// reply for 2s. With concurrent fan-out and a 300ms negotiation deadline
// the open must complete in about one deadline, served by the best live
// bidder, with the stalled RM degraded to a last-ranked zero bid that
// never receives an Open.
func TestLiveSlowPeerDoesNotDelayOpen(t *testing.T) {
	const (
		deadline = 300 * time.Millisecond
		stall    = 2 * time.Second
	)
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(50), units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
	})

	slow := startStallRM(t, stall)
	defer slow.close()
	if err := lc.Mapper.RegisterRM(ecnp.RMInfo{
		ID:           3,
		Capacity:     units.Mbps(100),
		StorageBytes: units.GB,
		Addr:         slow.ln.Addr().String(),
	}, []ids.FileID{0}); err != nil {
		t.Fatal(err)
	}

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(7),
		Fanout:    dfsc.Fanout{Concurrent: true, BidTimeout: deadline},
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	out := client.Access(0)
	elapsed := time.Since(start)
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
	if out.RM != 1 && out.RM != 2 {
		t.Fatalf("served by %v, want a live RM", out.RM)
	}
	if elapsed >= stall {
		t.Fatalf("open took %v: negotiation waited for the stalled RM", elapsed)
	}
	if elapsed > deadline+time.Second {
		t.Fatalf("open took %v, want ~%v", elapsed, deadline)
	}
	if slow.opens.Load() != 0 {
		t.Fatal("stalled RM received an Open despite its zero bid")
	}
}

// TestDirectoryBackoffRecoverySameAddr crashes an RM and hammers it with
// failing accesses (each one re-resolving through the MM, clearing the
// broken flag, and redialing under the pool's exponential backoff), then
// restarts the RM on the SAME address, which leaves the MM record as it
// was. The cached client must recover through the backoff gate alone — no
// directory invalidation, no new dial path (the same cached client). The
// window before the restarted RM re-registers is not covered.
func TestDirectoryBackoffRecoverySameAddr(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	// Short timeouts so the failure phase is fast and the backoff gate is
	// the dominant delay on recovery.
	tcfg := transport.Config{
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 500 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  80 * time.Millisecond,
	}
	dir := NewDirectoryConfig(lc.Mapper, tcfg)
	defer dir.Close()

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := client.Access(0); !out.OK {
		t.Fatalf("pre-crash access failed: %s", out.Reason)
	}

	cached, ok := dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 not resolved")
	}
	addr := lc.Server(1).Addr()
	lc.KillRM(1)

	// Several failing accesses: the health check discards the dead pooled
	// connection, redials fail, and the backoff ramps. Each attempt must
	// stay bounded by the short dial budget — no multi-second hangs.
	failStart := time.Now()
	for i := 0; i < 3; i++ {
		if out := client.Access(0); out.OK {
			t.Fatalf("access %d succeeded against a dead RM", i)
		}
	}
	if elapsed := time.Since(failStart); elapsed > 3*time.Second {
		t.Fatalf("3 failing accesses took %v; dials not deadline-bounded", elapsed)
	}

	// Restart the RM on the same address: it registers the address it had,
	// so the MM record is unchanged and recovery exercises ClearBroken +
	// pool redial, not a fresh dial.
	if err := lc.Restart(1, addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}

	start := time.Now()
	out := client.Access(0)
	if !out.OK {
		t.Fatalf("post-restart access failed: %s", out.Reason)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("recovery took %v, backoff budget is ~100ms", elapsed)
	}
	if out.RM != 1 {
		t.Fatalf("served by %v", out.RM)
	}
	if again, _ := dir.RMClient(1); again != cached {
		t.Fatal("directory re-resolved RM1 to a new client; want the cached one re-armed")
	}
	if lc.Node(1).Stats().Opens != 1 {
		t.Fatalf("restarted RM saw %d opens, want 1", lc.Node(1).Stats().Opens)
	}
	// The access's playback end releases through dir: let it, before the
	// deferred Close drops dir's connections.
	waitFor(t, "playback end", func() bool { return atRest(lc) == nil })
}
