package transport

import (
	"context"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/wire"
)

// BenchmarkCall is one control-plane round trip through Client.Call on a
// warm pool, against a loopback peer that acknowledges every frame:
// checkout with its probe, one armed deadline, a frame out, a frame in,
// the connection pooled again. An open is holders + 3 of these, so what a
// call allocates beside its payloads — the request boxed here, and boxed
// again where the in-process peer decodes it — is paid 19 times an open at
// 16 holders; scripts/bench.sh puts a ceiling on it.
func BenchmarkCall(b *testing.B) {
	ln := echoServer(b)
	defer ln.Close()
	c, err := Dial(ln.Addr().String(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A request id that varies, so its boxing into the payload
		// interface is the allocation it is on a real call.
		if _, err := c.Call(ctx, wire.KindKeepalive, wire.Keepalive{Request: ids.RequestID(i + 1000)}); err != nil {
			b.Fatal(err)
		}
	}
}
