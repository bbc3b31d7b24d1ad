package live

import (
	"context"
	"fmt"
	"io"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/ids"
	"dfsqos/internal/rm"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
)

// Copier implements rm.DataCopier over TCP: it streams the replica's bytes
// from the local virtual disk to the destination RM, paced at the
// replication transfer rate (the paper's 1.8 Mbit/s riding the B_REV
// reserve — the source reads and destination writes bypass the QoS
// throttle groups, matching the reserve semantics).
type Copier struct {
	disk *vdisk.Disk
	dir  *Directory
	// scale multiplies the pacing rate, so a deployment running its
	// WallScheduler at N virtual seconds per wall second replicates
	// N× faster in wall time and the virtual-time dynamics match the DES.
	scale   float64
	metrics *CopierMetrics
	// tracer opens a root span ("rm.replicate") per copy whose trace ID
	// is the replication ID, so a replica copy shows up in /traces like
	// any client request (nil: no spans).
	tracer *trace.Tracer
}

// CopyReplica implements rm.DataCopier.
func (c *Copier) CopyReplica(dst ids.RMID, rep ids.ReplicationID, file ids.FileID, meta rm.FileMeta, rate units.BytesPerSec) error {
	sp := c.tracer.StartRoot(ids.RequestID(rep), "rm.replicate").
		SetRM(dst).SetFile(file).SetBytes(int64(meta.Size))
	defer sp.End()
	cli, ok := c.dir.RMClient(dst)
	if !ok {
		c.metrics.TransfersFailed.Inc()
		sp.SetOutcome("error")
		return fmt.Errorf("live: copier: %v unreachable", dst)
	}
	src := &pacedFileReader{
		disk:  c.disk,
		name:  FileName(file),
		size:  int64(meta.Size),
		pace:  newPacer(units.BytesPerSec(float64(rate) * c.scale)),
		bytes: c.metrics.Bytes,
	}
	ctx := trace.NewContext(context.Background(), sp.Context())
	c.metrics.ActiveTransfers.Inc()
	err := cli.WriteFile(ctx, file, rep, int64(meta.Size), src)
	c.metrics.ActiveTransfers.Dec()
	if err != nil {
		c.metrics.TransfersFailed.Inc()
		sp.SetOutcome("error")
	} else {
		c.metrics.TransfersOK.Inc()
		sp.SetOutcome("ok")
	}
	return err
}

var _ rm.DataCopier = (*Copier)(nil)

// pacedFileReader streams a vdisk file through a private token bucket
// (raw reads: the replication reserve, not the VM's QoS throttle).
type pacedFileReader struct {
	disk  *vdisk.Disk
	name  string
	size  int64
	off   int64
	pace  *pacer
	bytes *telemetry.Counter
}

func (r *pacedFileReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	if len(p) > 64*1024 {
		p = p[:64*1024]
	}
	n, err := r.disk.ReadAtRaw(r.name, p, r.off)
	if n > 0 {
		r.pace.wait(n)
		r.off += int64(n)
		r.bytes.Add(uint64(n))
	}
	return n, err
}

// pacer is a minimal token bucket over wall time.
type pacer struct {
	ctrl  *blkio.Controller
	group *blkio.Group
}

func newPacer(rate units.BytesPerSec) *pacer {
	ctrl := blkio.NewController()
	g, err := ctrl.SetGroup("pace", rate, 0)
	if err != nil {
		panic(err) // rate > 0 by construction
	}
	return &pacer{ctrl: ctrl, group: g}
}

func (p *pacer) wait(n int) {
	if d := p.ctrl.Reserve(p.group, blkio.Read, n); d > 0 {
		time.Sleep(d)
	}
}
