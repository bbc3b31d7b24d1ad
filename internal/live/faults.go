package live

import (
	"errors"
	"time"

	"dfsqos/internal/faults"
	"dfsqos/internal/wire"
)

// Sentinel errors surfaced by injected faults; the serve loops treat any
// non-nil handler error as "drop this connection", which is exactly the
// blast radius these actions want.
var (
	errFaultDrop = errors.New("live: injected connection drop")
	errFaultTorn = errors.New("live: injected torn frame")
	errFaultKill = errors.New("live: injected server kill")
)

// applyFault enacts one fault decision on a connection. It returns
// (handled, err): handled true means the real handler must not run; a
// non-nil err additionally tells the serve loop to drop the connection.
//
//   - None proceeds (false, nil); Delay stalls, then proceeds.
//   - Drop returns an error so the peer sees EOF/reset mid-exchange.
//   - Error serves d.Err as a remote error; the connection stays healthy.
//   - PartialWrite sends a torn (kind, payload) frame — header promising
//     more bytes than follow — then drops the connection: the shape of a
//     crash mid-write.
//   - Kill calls kill, which closes the server's listener and every
//     connection and stops the node's loops before it returns — so no
//     later request, such as a client's release on another connection,
//     reaches the dead server, and no heartbeat or beat leaves the dead
//     process — and drops the connection. Close still waits for the
//     goroutines, this handler's among them, to unwind.
func applyFault(wc *wire.Conn, d faults.Decision, kind wire.Kind, payload any, kill func()) (bool, error) {
	switch d.Action {
	case faults.None:
		return false, nil
	case faults.Delay:
		time.Sleep(d.Delay)
		return false, nil
	case faults.Drop:
		return true, errFaultDrop
	case faults.Error:
		return true, wc.WriteError(d.Err)
	case faults.PartialWrite:
		wc.WriteTorn(kind, payload) // best effort: the conn drops either way
		return true, errFaultTorn
	case faults.Kill:
		kill()
		return true, errFaultKill
	}
	return false, nil
}
