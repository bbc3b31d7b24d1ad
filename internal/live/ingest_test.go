package live

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"testing"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// dialRM opens a raw protocol connection to one of lc's RM servers, with a
// deadline that turns a server waiting on bytes that never come into a
// failure instead of a hang.
func dialRM(t *testing.T, srv *RMServer) (net.Conn, *wire.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, wire.NewConn(conn)
}

// waitServerHolds waits until srv holds the connection whose client end is
// at addr (it has been accepted) or, with held false, no longer holds it
// (its handler has returned).
func waitServerHolds(t *testing.T, srv *RMServer, addr string, held bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		holds := false
		srv.mu.Lock()
		for c := range srv.conns {
			holds = holds || c.RemoteAddr().String() == addr
		}
		srv.mu.Unlock()
		if holds == held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds the connection from %s: %v, want %v", addr, holds, held)
		}
	}
}

// TestLiveIngestAllocatesAsBytesArrive declares a 256 MiB upload, sends one
// 64 KiB chunk and drops the connection: what the server allocated for it
// must follow the bytes that arrived, not the size the 20-byte WriteFile
// frame claimed, and nothing may be stored.
func TestLiveIngestAllocatesAsBytesArrive(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
	})
	srv := lc.Server(1)
	const file = ids.FileID(3)
	conn, wc := dialRM(t, srv)
	defer conn.Close()
	chunk := make([]byte, 64<<10)
	addr := conn.LocalAddr().String()
	waitServerHolds(t, srv, addr, true)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := wc.Write(wire.KindWriteFile, wire.WriteFile{File: file, SizeBytes: 256 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteChunk(0, chunk); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitServerHolds(t, srv, addr, false)
	runtime.ReadMemStats(&after)

	grew := after.TotalAlloc - before.TotalAlloc
	if grew >= 4<<20 {
		t.Fatalf("a dropped upload that declared 256 MiB and sent 64 KiB grew TotalAlloc by %d bytes, want < 4 MiB", grew)
	}
	t.Logf("TotalAlloc grew by %d bytes", grew)
	if size, err := srv.disk.Stat(FileName(file)); err == nil {
		t.Fatalf("the dropped upload stored a %v file", size)
	}
}

// TestLiveIngestOddShapedUploads speaks the upload protocol by hand over
// one connection, in shapes that do not tile the disk's storage blocks:
// chunks that straddle block boundaries, a one-byte last chunk, sizes
// either side of one block, and a zero-byte upload over a provisioned
// file, which must leave an empty written file rather than the
// synthesized content it replaced. Every stored file must read back byte
// for byte through ReadAtRaw and sum to the client's checksum.
func TestLiveIngestOddShapedUploads(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps: []units.BytesPerSec{units.Mbps(50)},
	})
	srv := lc.Server(1)
	conn, wc := dialRM(t, srv)
	defer conn.Close()

	const mib = 1 << 20
	r := rand.New(rand.NewPCG(7, 11))
	for i, tc := range []struct {
		name string
		size int
		cut  int
	}{
		{"100 000-byte chunks across three blocks", 3*mib + 7, 100_000},
		{"a 1-byte last chunk", 2*mib + 1, 64 << 10},
		{"exactly one block", mib, 64 << 10},
		{"one block less a byte", mib - 1, 64 << 10},
		{"one block and a byte", mib + 1, 64 << 10},
		{"zero bytes over a provisioned file", 0, 64 << 10},
	} {
		file := ids.FileID(10 + i)
		name := FileName(file)
		if tc.size == 0 {
			if err := srv.disk.Provision(name, 5000); err != nil {
				t.Fatal(err)
			}
		}
		data := make([]byte, tc.size)
		for j := range data {
			data[j] = byte(r.Uint32())
		}
		sum := wire.ChecksumUpdate(wire.ChecksumBasis, data)

		if err := wc.Write(wire.KindWriteFile, wire.WriteFile{File: file, SizeBytes: int64(tc.size)}); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < tc.size; off += tc.cut {
			if err := wc.WriteChunk(int64(off), data[off:min(off+tc.cut, tc.size)]); err != nil {
				t.Fatal(err)
			}
		}
		reply, err := wc.Call(wire.KindFileEnd, wire.FileEnd{Size: int64(tc.size), Checksum: sum})
		if err != nil || reply.Kind != wire.KindAck {
			t.Fatalf("%s: reply %v, err %v, want Ack", tc.name, reply.Kind, err)
		}

		if size, err := srv.disk.Stat(name); err != nil || int(size) != tc.size {
			t.Fatalf("%s: Stat = (%v, %v), want %d", tc.name, size, err, tc.size)
		}
		if got, err := srv.disk.Checksum(name); err != nil || got != sum {
			t.Fatalf("%s: Checksum = (%#x, %v), want %#x", tc.name, got, err, sum)
		}
		stored := make([]byte, tc.size+1)
		n, err := srv.disk.ReadAtRaw(name, stored, 0)
		if n != tc.size || !errors.Is(err, io.EOF) || !bytes.Equal(stored[:n], data) {
			t.Fatalf("%s: ReadAtRaw = (%d, %v), bytes equal %v", tc.name, n, err, bytes.Equal(stored[:n], data))
		}
	}
}
