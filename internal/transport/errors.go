// Package transport is the context-aware RPC substrate under the live ECNP
// stack. It owns the three concerns the higher layers kept re-implementing
// ad hoc:
//
//   - dialing with budgets: DialContext plus configurable dial and per-call
//     deadlines, so one unreachable peer costs a bounded slice of wall time
//     instead of a kernel-default TCP timeout;
//   - connection pooling: a bounded, lazily grown per-peer pool,
//     health-checked on checkout, replacing the one-mutex-one-connection
//     client pattern (calls to the same peer no longer serialize behind a
//     single in-flight RPC);
//   - failure classification: a typed error taxonomy — wire.RemoteError (the
//     peer answered with an error; the connection is fine), TimeoutError
//     (deadline exceeded), ConnError (the connection is unusable) — matched
//     with errors.As instead of substring checks on error text.
//
// Redialing a down peer backs off exponentially with jitter, so a crashed
// Resource Manager is probed politely rather than hammered, and recovers
// promptly once it re-registers.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"

	"dfsqos/internal/wire"
)

// TimeoutError reports an operation that exceeded its deadline: a dial
// that ran past DialTimeout, or a call that ran past CallTimeout or its
// context deadline. The underlying connection, if any, is discarded.
type TimeoutError struct {
	Op   string // "dial", "call CFP", ...
	Peer string // remote address
	Err  error  // the raw net/context error
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("transport: %s %s timed out: %v", e.Op, e.Peer, e.Err)
}

// Unwrap exposes the raw cause to errors.Is (context.DeadlineExceeded,
// os.ErrDeadlineExceeded).
func (e *TimeoutError) Unwrap() error { return e.Err }

// Timeout implements net.Error's timeout surface.
func (e *TimeoutError) Timeout() bool { return true }

// ConnError reports a transport-level failure — connection refused, reset,
// EOF mid-call, framing violation. The connection is unusable and has been
// (or must be) discarded; the peer may have crashed or restarted.
type ConnError struct {
	Op   string
	Peer string
	Err  error
}

// Error implements error.
func (e *ConnError) Error() string {
	return fmt.Sprintf("transport: %s %s: %v", e.Op, e.Peer, e.Err)
}

// Unwrap exposes the raw cause.
func (e *ConnError) Unwrap() error { return e.Err }

// ErrClosed is wrapped into the ConnError returned by operations on a
// closed client.
var ErrClosed = errors.New("transport: client closed")

// IsRemote reports whether err (anywhere in its chain) is a
// wire.RemoteError, an error the peer served over a healthy connection,
// rather than a transport failure. A served error never invalidates the
// connection.
func IsRemote(err error) bool {
	var re wire.RemoteError
	return errors.As(err, &re)
}

// IsTimeout reports whether err is a deadline overrun at any layer.
func IsTimeout(err error) bool {
	var te *TimeoutError
	if errors.As(err, &te) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded)
}

// Classify wraps a raw wire/net error into the taxonomy. nil and
// already-classified errors pass through unchanged; deadline overruns
// become *TimeoutError and everything else becomes *ConnError.
func Classify(op, peer string, err error) error {
	if err == nil || IsRemote(err) {
		return err
	}
	var te *TimeoutError
	var ce *ConnError
	if errors.As(err, &te) || errors.As(err, &ce) {
		return err
	}
	var ne net.Error
	if (errors.As(err, &ne) && ne.Timeout()) || IsTimeout(err) {
		return &TimeoutError{Op: op, Peer: peer, Err: err}
	}
	return &ConnError{Op: op, Peer: peer, Err: err}
}
