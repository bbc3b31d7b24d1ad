package live

import (
	"bytes"
	"errors"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestLiveMixedCodecStreams runs the full negotiation + data-plane flow
// over real TCP and asserts the codec split end to end. Bringing the
// cluster up is administrative traffic — RM registration, the directory's
// RMs listing — and travels as gob. Once the directory has resolved every
// holder, an access is all binary fast path: the per-open negotiation
// (lookup, one CFP/Bid per holder, Open/OpenResult, Close) and the data
// chunks share the same pooled connections and not one gob frame moves,
// and the transferred bytes verify. Then the whole cluster is
// re-exercised with connections pinned to gob (the legacy-peer interop
// mode): the identical stream must still verify, with the gob frame
// counters advancing instead.
func TestLiveMixedCodecStreams(t *testing.T) {
	_, txG0, _, rxG0 := wire.CodecStats()
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(80), units.Mbps(80)},
		map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.mmCli,
		Directory: lc.dir,
		Scheduler: lc.sched,
		Catalog:   lc.cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}

	stream := func(tag string) {
		t.Helper()
		out := client.Access(0)
		if !out.OK {
			t.Fatalf("%s: access failed: %s", tag, out.Reason)
		}
		served, ok := lc.dir.RMClient(out.RM)
		if !ok {
			t.Fatalf("%s: winner not reachable", tag)
		}
		var buf bytes.Buffer
		n, err := readWhole(served, 0, &buf) // verifies size + checksum internally
		if err != nil {
			t.Fatalf("%s: stream: %v", tag, err)
		}
		if n != int64(lc.cat.File(0).Size) {
			t.Fatalf("%s: streamed %d bytes, want %d", tag, n, lc.cat.File(0).Size)
		}
		served.Close(out.Request)
	}

	// Round 1: default build. The first access also resolves the holders
	// through the directory, so with cluster start-up it accounts for the
	// gob (administrative) half of the split.
	stream("fastpath, cold directory")
	if _, txG, _, rxG := wire.CodecStats(); txG <= txG0 || rxG <= rxG0 {
		t.Errorf("registration and the RMs listing moved no gob frames: tx %d→%d rx %d→%d", txG0, txG, rxG0, rxG)
	}
	// A second access finds every holder resolved: negotiation and data
	// plane are binary, nothing is left for gob.
	txB1, txG1, rxB1, rxG1 := wire.CodecStats()
	stream("fastpath")
	txB2, txG2, rxB2, rxG2 := wire.CodecStats()
	// Lookup + reply, a CFP + Bid per holder, Open + result, ReadFile,
	// Close + ack: 11 frames with 2 holders, before a single chunk.
	if txB2-txB1 < 11 || rxB2-rxB1 < 11 {
		t.Errorf("fast path moved too few binary frames for a negotiation: tx +%d rx +%d", txB2-txB1, rxB2-rxB1)
	}
	// Exactly zero is safe to ask of the process-wide counters: nothing in
	// this process sends a frame on its own. startLiveCluster starts no
	// heartbeat, lease refresh or re-registration, Static replication makes
	// no replica offers or bookkeeping calls on close, and no test in this
	// package runs in parallel. A background gob sender added to any of
	// those has to relax this to a per-access bound.
	if txG2 != txG1 || rxG2 != rxG1 {
		t.Errorf("a negotiated access moved gob frames: tx +%d rx +%d", txG2-txG1, rxG2-rxG1)
	}

	// Round 2: pin every NEW connection to gob, the shape of a legacy peer
	// on both ends. A fresh client to the same cluster must still stream
	// and verify — no fast-path dependence anywhere in the data plane.
	prev := wire.SetDefaultFastPath(false)
	defer wire.SetDefaultFastPath(prev)
	served, ok := lc.dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 not reachable")
	}
	gobCli, err := DialRM(served.Info()) // fresh pool, created under the gob default
	if err != nil {
		t.Fatal(err)
	}
	defer gobCli.Disconnect()
	_, txG3, _, rxG3 := wire.CodecStats()
	var buf bytes.Buffer
	n, err := readWhole(gobCli, 1, &buf)
	if err != nil {
		t.Fatalf("gob-pinned stream: %v", err)
	}
	if n != int64(lc.cat.File(1).Size) {
		t.Fatalf("gob-pinned stream: %d bytes, want %d", n, lc.cat.File(1).Size)
	}
	_, txG4, _, rxG4 := wire.CodecStats()
	if txG4 <= txG3 || rxG4 <= rxG3 {
		t.Errorf("gob-pinned stream moved no gob frames: tx %d→%d rx %d→%d", txG3, txG4, rxG3, rxG4)
	}
}

// TestLiveBinaryRejectionSurfacesTypedError pins the failure mode of a
// version skew: a server whose connections refuse binary frames answers a
// fast-path chunk with a typed *CodecError-derived stream failure, not a
// hang or a misparse. Exercised at the wire level against a live RM
// server connection.
func TestLiveBinaryRejectionSurfacesTypedError(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(80)},
		map[ids.FileID][]ids.RMID{0: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	served, ok := lc.dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 not reachable")
	}
	// A client that refuses incoming binary frames sees the server's
	// fast-path chunks as a typed codec error and the stream fails loudly.
	cli, err := DialRM(served.Info())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Disconnect()
	err = cli.stream(func(wc *wire.Conn) error {
		wc.SetAcceptBinary(false)
		if werr := wc.Write(wire.KindReadFile, wire.ReadFile{File: 0, ChunkSize: 64 * 1024}); werr != nil {
			return werr
		}
		_, rerr := wc.Read()
		return rerr
	})
	if err == nil {
		t.Fatal("binary-refusing reader accepted a fast-path stream")
	}
	var ce *wire.CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("stream failure not a CodecError: %v", err)
	}
	if ce.Codec != wire.CodecBinary {
		t.Fatalf("rejected codec %v, want binary", ce.Codec)
	}
}
