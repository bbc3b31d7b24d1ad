// Mid-stream read failover: when the replica serving a read dies, the
// client re-resolves the replica set through the MM, excludes the failed
// RM, re-runs admission on the next-best bidder, and resumes the stream
// from the exact byte where the previous segment ended — bounded retries
// with jittered backoff between attempts. The running checksum state
// (CRC-32C: wire.ChecksumUpdate) chains across segments, so the whole-file
// integrity check in the final FileEnd frame still holds even though the
// bytes arrived from several replicas.
package dfsc

import (
	"context"
	"fmt"
	"io"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
	"dfsqos/internal/wire"
)

// Streamer is the data plane the failover reader drives. The live
// deployment's Directory implements it (resolving rm to a pooled TCP
// client and streaming from offset); tests substitute fakes. ctx may
// carry a trace span context (trace.NewContext) that the implementation
// propagates onto the stream's wire frames. sum is the running checksum
// state threaded across segments; implementations must report the bytes
// delivered even when they return an error — that is the next segment's
// resume point.
type Streamer interface {
	StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error)
}

// FailoverConfig tunes ReadWithFailover.
type FailoverConfig struct {
	// MaxFailovers bounds how many times the read may move to another
	// replica after the first RM fails (0: the read fails on the first
	// stream error; negative is treated as 0).
	MaxFailovers int
	// Backoff is the base delay before each re-negotiation, jittered
	// uniformly over [0.5×, 1.5×] so synchronized clients do not stampede
	// the survivors. Zero defaults to 50ms.
	Backoff time.Duration
}

// SegmentInfo attributes one delivered byte range to the replica that
// served it, so a multi-RM read is auditable segment by segment.
type SegmentInfo struct {
	// Offset/Length locate the segment in the file.
	Offset int64
	Length int64
	// RM is the replica whose copy of the range was committed.
	RM ids.RMID
	// Hedged reports that the committed copy came from a hedge — a
	// speculative re-issue that beat the original lane to completion.
	Hedged bool
}

// ReadResult describes one (possibly multi-segment, possibly striped)
// read.
type ReadResult struct {
	// Bytes is the total delivered to the writer across all segments.
	Bytes int64
	// Failovers is how many times a stream (or stripe lane) moved to
	// another replica.
	Failovers int
	// RMs lists the serving RMs in admission order. On the sequential
	// (1-wide) path that is segment order: the first entry is the
	// original winner and each further entry is one failover. On a
	// striped read it is lane-admission order — segment attribution lives
	// in Segments, because lanes interleave and "segment order" is no
	// longer well defined for a flat RM list.
	RMs []ids.RMID
	// Segments attributes every committed byte range to its serving RM,
	// in file-offset order (which is also commit order).
	Segments []SegmentInfo
	// Checksum is the whole-file CRC-32C sum (wire.ChecksumUpdate from
	// wire.ChecksumBasis, in the low 32 bits) folded over the delivered
	// bytes in offset order, verified against the server side: the final
	// FileEnd checksum on the sequential path, per-range checksums on the
	// striped path. Valid only when the read succeeded.
	Checksum uint64
	// Hedges counts slow-lane ranges speculatively re-issued to another
	// replica; HedgesWon counts those where the hedge's copy was the one
	// committed.
	Hedges    int
	HedgesWon int
}

// ReadWithFailover reads file through s, failing over to another replica
// when a segment dies mid-stream. Each segment rides a fresh QoS
// reservation negotiated with the failed RMs excluded, resumes at the
// exact byte offset the previous segment reached, and threads one running
// checksum so the final segment's whole-file verification covers every
// byte delivered. The reservation is released when its segment ends
// (successfully or not); releasing on a dead RM is a best-effort no-op.
func (c *Client) ReadWithFailover(s Streamer, file ids.FileID, w io.Writer, cfg FailoverConfig) (ReadResult, error) {
	if cfg.MaxFailovers < 0 {
		cfg.MaxFailovers = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	var res ReadResult
	exclude := make(map[ids.RMID]bool)
	sum := wire.ChecksumBasis

	// One root span covers the whole multi-segment read: its trace ID is
	// a fresh request ID (each segment negotiates under its own request,
	// recorded per-segment via SetRequest), so a failover read shows up
	// in /traces as ONE trace whose "dfsc.segment" children land on
	// different RMs at contiguous byte offsets.
	root := c.tracer.StartRoot(c.nextRequestID(), "dfsc.read").SetFile(file)
	defer root.End()
	ctx := trace.NewContext(context.Background(), root.Context())

	out, release := c.accessHeldCtx(ctx, file, exclude)
	if !out.OK {
		root.SetOutcome("error")
		return res, fmt.Errorf("dfsc: read %v: %s", file, out.Reason)
	}
	var offset int64
	for {
		res.RMs = append(res.RMs, out.RM)
		seg := c.tracer.StartChild(root.Context(), "dfsc.segment").
			SetRM(out.RM).SetFile(file).SetRequest(out.Request).SetOffset(offset)
		n, err := s.StreamAt(trace.NewContext(ctx, seg.Context()), out.RM, file, out.Request, offset, w, &sum)
		seg.SetBytes(n)
		if n > 0 || err == nil {
			res.Segments = append(res.Segments, SegmentInfo{Offset: offset, Length: n, RM: out.RM})
			c.met.Segments.Inc()
			c.mu.Lock()
			c.stats.Segments++
			c.mu.Unlock()
		}
		offset += n
		res.Bytes = offset
		release() // best effort on a dead RM; idempotent
		if err == nil {
			res.Checksum = sum
			seg.SetOutcome("ok").End()
			root.SetRM(out.RM).SetBytes(offset).SetOutcome("ok")
			return res, nil
		}
		seg.SetOutcome("failover").End()
		exclude[out.RM] = true
		if res.Failovers >= cfg.MaxFailovers {
			root.SetBytes(offset).SetOutcome("error")
			return res, fmt.Errorf("dfsc: read %v: %d byte(s), %d failover(s) exhausted: %w",
				file, offset, res.Failovers, err)
		}
		res.Failovers++
		c.sleepJittered(cfg.Backoff)

		start := time.Now()
		out, release = c.accessHeldCtx(ctx, file, exclude)
		if !out.OK {
			root.SetBytes(offset).SetOutcome("error")
			return res, fmt.Errorf("dfsc: read %v: failover %d found no replica: %s (after: %w)",
				file, res.Failovers, out.Reason, err)
		}
		c.met.Failovers.Inc()
		c.met.FailoverLatency.Observe(time.Since(start).Seconds())
		c.mu.Lock()
		c.stats.Failovers++
		c.mu.Unlock()
	}
}

// sleepJittered sleeps for base scaled uniformly into [0.5, 1.5), drawn
// from the client's seeded stream so chaos runs stay reproducible.
func (c *Client) sleepJittered(base time.Duration) {
	c.mu.Lock()
	f := c.src.Float64()
	c.mu.Unlock()
	time.Sleep(time.Duration(float64(base) * (0.5 + f)))
}
