package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
)

// TestCallContextDeadlineUnblocksStalledRead verifies a CallContext
// against a peer that never replies returns promptly at the context
// deadline instead of blocking forever.
func TestCallContextDeadlineUnblocksStalledRead(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		// Drain the request, then stall: never reply.
		buf := make([]byte, 1<<16)
		for {
			if _, err := srv.Read(buf); err != nil {
				return
			}
		}
	}()

	wc := NewConn(cli)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := wc.CallDeadline(ctx, time.Time{}, KindRMs, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a silent peer succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded call returned after %v", elapsed)
	}
}

// TestCallContextCancelUnblocksStalledRead verifies early cancellation
// (not just deadline expiry) aborts a pending call.
func TestCallContextCancelUnblocksStalledRead(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := srv.Read(buf); err != nil {
				return
			}
		}
	}()

	wc := NewConn(cli)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := wc.CallDeadline(ctx, time.Time{}, KindRMs, nil)
	if err == nil {
		t.Fatal("canceled call succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled call returned after %v", elapsed)
	}
}

// TestCallContextPlainSuccess verifies the deadline plumbing leaves a
// healthy round trip untouched and clears the connection deadline after.
func TestCallContextPlainSuccess(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		swc := NewConn(srv)
		for {
			if _, err := swc.Read(); err != nil {
				return
			}
			if err := swc.Write(KindAck, Ack{}); err != nil {
				return
			}
		}
	}()

	wc := NewConn(cli)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// Two calls through the same conn: the first must not leave a stale
	// deadline that kills the second.
	for i := 0; i < 2; i++ {
		reply, err := wc.CallDeadline(ctx, time.Time{}, KindRMs, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply.Kind != KindAck {
			t.Fatalf("call %d: reply %v", i, reply.Kind)
		}
	}
}

// TestCallRemoteErrorIsTyped verifies a served error surfaces as
// RemoteError, matchable with errors.As — never by substring.
func TestCallRemoteErrorIsTyped(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		swc := NewConn(srv)
		if _, err := swc.Read(); err != nil {
			return
		}
		swc.WriteError(errors.New("boom"))
	}()

	wc := NewConn(cli)
	_, err := wc.Call(KindRMs, nil)
	var re RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want RemoteError", err, err)
	}
	if re.Text != "boom" {
		t.Fatalf("RemoteError.Text = %q", re.Text)
	}
}

// TestServedErrorDecodesPayload: a KindError frame serves its text and
// its refusal code, which errors.Is matches as it would in process; one
// with no code matches no refusal; and one whose payload is no Error
// serves the one fallback text every reader of replies and streams
// reports.
func TestServedErrorDecodesPayload(t *testing.T) {
	if got := ServedError(Msg{Kind: KindError, Payload: Error{Text: "boom"}}); got.Text != "boom" || ecnp.RefusalOf(got) != 0 {
		t.Fatalf("served %+v, want text boom and no code", got)
	}
	served := ServedError(Msg{Kind: KindError, Payload: Error{Code: ecnp.ErrDiskFull, Text: "rm: RM1: disk full"}})
	if !errors.Is(served, ecnp.ErrDiskFull) || errors.Is(served, ecnp.ErrTenantBytes) {
		t.Fatalf("served %+v: errors.Is does not single out ErrDiskFull", served)
	}
	if got := ServedError(Msg{Kind: KindError, Payload: Ack{}}); got.Text != "malformed error payload" {
		t.Fatalf("served text %q for a non-Error payload", got.Text)
	}
}

// ackPipe returns a client Conn whose peer acknowledges every frame, and
// the client's end of the pipe for tests that reach under the Conn.
func ackPipe(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	go func() {
		swc := NewConn(srv)
		for {
			if _, err := swc.Read(); err != nil {
				return
			}
			if err := swc.Write(KindAck, Ack{}); err != nil {
				return
			}
		}
	}()
	return NewConn(cli), cli
}

// TestCallDeadlineBoundsABackgroundCall: the absolute deadline is a bound
// of its own — no context has to carry it — and its overrun reads as the
// deadline it is.
func TestCallDeadlineBoundsABackgroundCall(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go io.Copy(io.Discard, srv) // take the request, never reply

	start := time.Now()
	_, err := NewConn(cli).CallDeadline(context.Background(), start.Add(100*time.Millisecond), KindRMs, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline-bounded call returned after %v", elapsed)
	}
}

// TestCallDeadlineEarlierBoundWins: of the absolute deadline and the
// context's, the earlier is the one armed, whichever way round they are.
func TestCallDeadlineEarlierBoundWins(t *testing.T) {
	for _, tc := range []struct {
		name         string
		ctxIn, absIn time.Duration
	}{
		{"context first", 80 * time.Millisecond, 5 * time.Second},
		{"deadline first", 5 * time.Second, 80 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			defer srv.Close()
			go io.Copy(io.Discard, srv)
			ctx, cancel := context.WithTimeout(context.Background(), tc.ctxIn)
			defer cancel()
			start := time.Now()
			_, err := NewConn(cli).CallDeadline(ctx, start.Add(tc.absIn), KindRMs, nil)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("call returned after %v, the earlier bound was 80ms", elapsed)
			}
			if tc.absIn < tc.ctxIn && ctx.Err() != nil {
				t.Fatalf("the context ended (%v) although the deadline came first", ctx.Err())
			}
		})
	}
}

// TestCallClearsWhatAnEarlierUserLeftArmed: every bounded call arms or
// clears at its start, so a deadline left on the stream — already in the
// past here — cannot fail a call that has none of its own; and a call that
// armed one leaves none behind.
func TestCallClearsWhatAnEarlierUserLeftArmed(t *testing.T) {
	wc, cli := ackPipe(t)
	cli.SetDeadline(time.Now().Add(-time.Second))
	if _, err := wc.CallDeadline(context.Background(), time.Time{}, KindRMs, nil); err != nil {
		t.Fatalf("call on a stream with a stale deadline: %v", err)
	}
	if _, err := wc.CallDeadline(context.Background(), time.Now().Add(50*time.Millisecond), KindRMs, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // past what the last call armed
	if _, err := wc.Call(KindRMs, nil); err != nil {
		t.Fatalf("plain call after a bounded one: %v (its deadline was left armed)", err)
	}
}

// TestCancelAfterReturnCannotTouchTheStream pins the guard between a
// call's cancellation callback and its return path: once the call has
// returned, its context firing — however late the callback's goroutine
// runs — must not expire the stream's deadline under whoever uses the
// connection next.
func TestCancelAfterReturnCannotTouchTheStream(t *testing.T) {
	wc, _ := ackPipe(t)
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// The cancellation races the reply: sometimes before the return
		// path, sometimes after it.
		go cancel()
		if _, err := wc.CallDeadline(ctx, time.Time{}, KindRMs, nil); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: %v", i, err)
			}
			// Aborted mid-exchange: the stream is desynchronized by
			// contract. Start over on a fresh pair.
			wc, _ = ackPipe(t)
			continue
		}
		// The call reported success, so the stream must be usable with no
		// deadline on it, now and after the callback has had time to run.
		for _, pause := range []time.Duration{0, time.Millisecond} {
			time.Sleep(pause)
			if _, err := wc.Call(KindRMs, nil); err != nil {
				t.Fatalf("round %d: plain call after a successful canceled-late call: %v", i, err)
			}
		}
	}
}
