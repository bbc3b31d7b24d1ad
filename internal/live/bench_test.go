package live

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// BenchmarkLiveStreamThroughput measures end-to-end data-plane throughput
// over real TCP on localhost: a live RM server streaming a provisioned
// file through the full stack (vdisk read, blkio throttle, wire framing,
// kernel sockets, client-side checksum verify). The disk throttle is set
// absurdly high so the codec and framing—not the QoS limiter—dominate.
func BenchmarkLiveStreamThroughput(b *testing.B) {
	lc := startLiveCluster(b,
		[]units.BytesPerSec{units.Mbps(1e6)}, // throttle out of the way
		map[ids.FileID][]ids.RMID{0: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	served, ok := lc.dir.RMClient(1)
	if !ok {
		b.Fatal("RM 1 not reachable")
	}
	size := int64(lc.cat.File(0).Size)
	// Warm the stream path once WITH integrity verification: the codec
	// under measurement must produce checksum-clean bytes.
	if _, err := readWhole(served, 0, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	// The measured loop passes a nil checksum state: this benchmark
	// isolates transport throughput (codec, framing, syscalls); the
	// checksum verify cost is benchmarked separately
	// (wire.BenchmarkChecksum).
	for i := 0; i < b.N; i++ {
		n, err := served.ReadRange(context.Background(), 0, 0, 0, 0, io.Discard, nil)
		if err != nil {
			b.Fatal(err)
		}
		if n != size {
			b.Fatalf("streamed %d bytes, want %d", n, size)
		}
	}
}

// BenchmarkLiveNegotiate measures one whole negotiation over loopback TCP
// — AccessHeld (lookup at the MM, one CFP per holder fanned out
// concurrently, the Open at the winner) plus the release's Close — at 3, 8
// and 16 holders of the requested file. "cold" has no metadata lease, so
// every open pays the lookup round trip; "hot" arms a lease far longer
// than the run, so the lookup is answered from the client's cache and the
// open is 2·holders + 4 frames instead of 2·holders + 6. Soft admission
// on fat RMs: nothing is refused, the data plane stays idle, and the
// per-open control codec is what is being priced. scripts/bench.sh gates
// allocs/op at 8 × holders + 40.
func BenchmarkLiveNegotiate(b *testing.B) {
	for _, holders := range []int{3, 8, 16} {
		for _, lease := range []struct {
			name string
			ttl  time.Duration
		}{{"cold", 0}, {"hot", time.Hour}} {
			b.Run(fmt.Sprintf("H%d/%s", holders, lease.name), func(b *testing.B) {
				caps := make([]units.BytesPerSec, holders)
				rms := make([]ids.RMID, holders)
				for i := range caps {
					caps[i] = units.Mbps(1000)
					rms[i] = ids.RMID(i + 1)
				}
				lc := startLiveCluster(b, caps,
					map[ids.FileID][]ids.RMID{0: rms},
					replication.DefaultConfig(replication.Static()), 100)
				defer lc.shutdown()

				client, err := dfsc.New(dfsc.Options{
					ID:        1,
					Mapper:    lc.mmCli,
					Directory: lc.dir,
					Scheduler: lc.sched,
					Catalog:   lc.cat,
					Policy:    selection.Full,
					Scenario:  qos.Soft,
					Rand:      rng.New(11),
					Fanout:    dfsc.Fanout{Concurrent: true},
					MetaTTL:   lease.ttl,
				})
				if err != nil {
					b.Fatal(err)
				}
				negotiate := func() {
					out, release := client.AccessHeld(0)
					if !out.OK {
						b.Fatalf("open refused: %s", out.Reason)
					}
					release()
				}
				negotiate() // dial every pool, fill the lease
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					negotiate()
				}
			})
		}
	}
}

// BenchmarkLiveWorkConservingThroughput is the work-conserving QoS
// headline: one RM capped at 32 MB/s hosts two reservations, each with a
// 16 MB/s assured floor. The measured loop streams reservation A while B
// idles — under the flat tree (ceilFrac 0, ceiling == floor) A is pinned
// to its 16 MB/s floor even though half the disk sits idle; under the
// work-conserving tree (ceilFrac 1) A borrows B's unused tokens and runs
// at the full 32 MB/s disk rate. The conserving/flat ratio is the
// utilization win BENCH_9.json gates on. After the timed loop, a fixed
// contention window streams both reservations greedily and asserts B's
// floor held (its rate stayed at least ~72% of assured); the result is
// reported as the "violations" metric, which the bench gate requires to
// be zero in both modes — work conservation must never be bought with a
// busy neighbor's guarantee.
func BenchmarkLiveWorkConservingThroughput(b *testing.B) {
	perRM := units.Mbps(256) // 32 MB/s disk; two 16 MB/s floors
	floor := perRM / 2
	for _, mode := range []struct {
		name     string
		ceilFrac float64
		steady   units.BytesPerSec // expected A-alone rate, for burst drain
	}{
		{"flat", 0, floor},
		{"conserving", 1, perRM},
	} {
		b.Run(mode.name, func(b *testing.B) {
			lc := startLiveCluster(b,
				[]units.BytesPerSec{perRM},
				map[ids.FileID][]ids.RMID{0: {1}},
				replication.DefaultConfig(replication.Static()), 100)
			defer lc.shutdown()
			if err := lc.rmSrvs[0].EnableStreamQoS(mode.ceilFrac); err != nil {
				b.Fatal(err)
			}
			cli, ok := lc.dir.RMClient(1)
			if !ok {
				b.Fatal("RM 1 not reachable")
			}
			const reqA, reqB = ids.RequestID(9001), ids.RequestID(9002)
			for _, req := range []ids.RequestID{reqA, reqB} {
				res := cli.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: floor, DurationSec: 300})
				if !res.OK {
					b.Fatalf("open %v refused: %s", req, res.Reason)
				}
			}
			size := int64(lc.cat.File(0).Size)

			// Drain A's one-second token burst (and the root pool's) so the
			// measured loop sees the steady borrow-or-floor rate, not free
			// startup tokens: whole-file reads are repeated until one takes
			// ~the sustained-rate duration for this mode.
			throttled := time.Duration(float64(size) / float64(mode.steady) * float64(time.Second))
			for {
				start := time.Now()
				if _, err := cli.ReadRange(context.Background(), 0, reqA, 0, 0, io.Discard, nil); err != nil {
					b.Fatal(err)
				}
				if time.Since(start) > throttled*3/4 {
					break
				}
			}

			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := cli.ReadRange(context.Background(), 0, reqA, 0, 0, io.Discard, nil)
				if err != nil {
					b.Fatal(err)
				}
				if n != size {
					b.Fatalf("streamed %d bytes, want %d", n, size)
				}
			}
			b.StopTimer()

			// Contention window: both reservations stream greedily for a
			// fixed wall slice; B's floor must hold even while A has been
			// borrowing its headroom all benchmark long.
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := cli.ReadRange(context.Background(), 0, reqA, 0, 0, io.Discard, nil); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			const window = 1500 * time.Millisecond
			var bBytes int64
			start := time.Now()
			for time.Since(start) < window {
				n, err := cli.ReadRange(context.Background(), 0, reqB, 0, 0, io.Discard, nil)
				if err != nil {
					b.Fatal(err)
				}
				bBytes += n
			}
			elapsed := time.Since(start)
			close(stop)
			<-done
			if b.Failed() {
				b.FailNow()
			}
			bRate := units.BytesPerSec(float64(bBytes) / elapsed.Seconds())
			violations := 0.0
			if bRate < floor*72/100 {
				violations = 1
				b.Logf("floor violation: B ran at %v, assured %v", bRate, floor)
			}
			b.ReportMetric(violations, "violations")
		})
	}
}

// firstByteStamp discards what it is given, noting when the first of it
// arrived.
type firstByteStamp struct{ at time.Time }

func (w *firstByteStamp) Write(p []byte) (int, error) {
	if w.at.IsZero() && len(p) > 0 {
		w.at = time.Now()
	}
	return len(p), nil
}

// BenchmarkLiveStripedReadThroughput measures the K-wide striped read
// against per-replica blkio throttles: K RMs each capped at 32 MB/s, all
// holding the file, one dfsc client striping ranges across them. Unlike
// the raw streaming benchmark above, the throttle is deliberately IN the
// way — per-replica bandwidth is the bottleneck the stripe exists to
// aggregate, so throughput should scale ~linearly with K (the paper's
// single-RM QoS ceiling, multiplied by parallel replicas). K1 runs one
// lane with two fetchers on one replica and is the baseline BENCH_6.json's
// stripe-scaling gate compares K4 against. Beside MB/s each arm reports
// first-byte-ms, the start-up delay with the throttle in the way.
func BenchmarkLiveStripedReadThroughput(b *testing.B) {
	perRM := units.Mbps(256) // 32 MB/s sustained per replica
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			caps := make([]units.BytesPerSec, k)
			holders := make([]ids.RMID, k)
			for i := range caps {
				caps[i] = perRM
				holders[i] = ids.RMID(i + 1)
			}
			lc := startLiveCluster(b, caps,
				map[ids.FileID][]ids.RMID{0: holders},
				replication.DefaultConfig(replication.Static()), 100)
			defer lc.shutdown()

			client, err := dfsc.New(dfsc.Options{
				ID:        1,
				Mapper:    lc.mmCli,
				Directory: lc.dir,
				Scheduler: lc.sched,
				Catalog:   lc.cat,
				Policy:    selection.RemOnly,
				Scenario:  qos.Soft,
				Rand:      rng.New(9),
			})
			if err != nil {
				b.Fatal(err)
			}
			size := int64(lc.cat.File(0).Size)
			segBytes := size / int64(3*k)

			// Drain every replica's one-second token burst (concurrently, so
			// no bucket refills while a sibling drains): once whole-file reads
			// take ~the sustained-rate duration, the bucket is pinned near
			// empty and the measured loop sees the steady throttle rate.
			throttled := time.Duration(float64(size) / float64(perRM) * float64(time.Second))
			var wg sync.WaitGroup
			for _, id := range holders {
				cli, ok := lc.dir.RMClient(id)
				if !ok {
					b.Fatalf("RM %v unreachable", id)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						start := time.Now()
						if _, err := cli.ReadRange(context.Background(), 0, 0, 0, 0, io.Discard, nil); err != nil {
							b.Error(err)
							return
						}
						if time.Since(start) > throttled*3/4 {
							return
						}
					}
				}()
			}
			wg.Wait()
			if b.Failed() {
				b.FailNow()
			}

			// first-byte-ms: the call to the first byte at the writer, mean
			// over the reads.
			var sink firstByteStamp
			var toFirstByte time.Duration
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.at = time.Time{}
				start := time.Now()
				res, err := client.ReadStriped(lc.dir, 0, &sink, dfsc.StripeConfig{
					Width:        k,
					SegmentBytes: segBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Bytes != size {
					b.Fatalf("striped %d bytes, want %d", res.Bytes, size)
				}
				toFirstByte += sink.at.Sub(start)
			}
			b.ReportMetric(float64(toFirstByte)/float64(b.N)/1e6, "first-byte-ms")
		})
	}
}
