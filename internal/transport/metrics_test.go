package transport

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/telemetry"
	"dfsqos/internal/wire"
)

// echoServer answers every request with an Ack until the listener closes.
func echoServer(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
					if _, err := wc.Read(); err != nil {
						return
					}
					if err := wc.Write(wire.KindAck, wire.Ack{}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

func TestMetricsCountCallsAndPoolChurn(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	cfg := DefaultConfig()
	cfg.Metrics = m
	c := NewClient(ln.Addr().String(), cfg)
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
			t.Fatal(err)
		}
	}

	if got := m.DialsOK.Value(); got != 1 {
		t.Fatalf("dials ok = %d, want 1 (pool reuse)", got)
	}
	if got := m.CheckoutsDial.Value(); got != 1 {
		t.Fatalf("dial checkouts = %d, want 1", got)
	}
	if got := m.CheckoutsPool.Value(); got != 2 {
		t.Fatalf("pool checkouts = %d, want 2", got)
	}
	if got := m.CallLatency.Count(); got != 3 {
		t.Fatalf("latency observations = %d, want 3", got)
	}
	if got := m.PoolIdle.Value(); got != 1 {
		t.Fatalf("idle gauge = %v, want 1", got)
	}
	c.Close()
	if got := m.PoolIdle.Value(); got != 0 {
		t.Fatalf("idle gauge after close = %v, want 0", got)
	}
	if m.ErrRemote.Value()+m.ErrTimeout.Value()+m.ErrConn.Value() != 0 {
		t.Fatal("error counters moved on a clean run")
	}

	// The exposition includes the call-latency histogram and pool gauge.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dfsqos_transport_call_latency_seconds_bucket",
		"dfsqos_transport_call_latency_seconds_count 3",
		"dfsqos_transport_pool_idle_connections",
		`dfsqos_transport_dials_total{result="ok"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestMetricsClassifyErrorsAndBackoff(t *testing.T) {
	// A peer that is not listening: dials fail, error class = conn (or
	// timeout under pathological schedulers — accept either bucket but
	// require the total).
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	cfg := DefaultConfig()
	cfg.Metrics = m
	cfg.DialTimeout = 200 * time.Millisecond
	cfg.BackoffBase = time.Millisecond
	c := NewClient("127.0.0.1:1", cfg)
	defer c.Close()

	for i := 0; i < 2; i++ {
		if _, err := c.Call(context.Background(), wire.KindRMs, nil); err == nil {
			t.Fatal("call to dead peer succeeded")
		}
	}
	if got := m.DialsFailed.Value(); got != 2 {
		t.Fatalf("failed dials = %d, want 2", got)
	}
	if got := m.ErrConn.Value() + m.ErrTimeout.Value(); got != 2 {
		t.Fatalf("classified errors = %d, want 2", got)
	}
	if got := m.RedialWaits.Value(); got < 1 {
		t.Fatalf("redial waits = %d, want >= 1 (second dial was backoff-gated)", got)
	}
	if got := m.CallLatency.Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2 (failures observed too)", got)
	}
}

func TestNoMetricsConfigUsesSharedNop(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Metrics != nopMetrics {
		t.Fatal("zero Config did not pick the shared no-op metrics")
	}
	// The no-op sink is recordable without a registry.
	cfg.Metrics.DialsOK.Inc()
}
