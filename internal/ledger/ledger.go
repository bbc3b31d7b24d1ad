// Package ledger implements per-RM disk-bandwidth accounting: who is
// allocated how much, what remains, and — the paper's soft real-time
// criterion — how many bytes were over-allocated beyond the disk's maximum
// sustainable bandwidth.
//
// The paper defines the over-allocate ratio R_OA = S_OA / S_TA, where S_OA
// is "the total bytes that exceeds the maximum accessible bandwidth" and
// S_TA is "the total bytes assigned to this RM" (Fig. 4). Allocation is
// piecewise constant between allocate/release events, so the ledger
// integrates S_OA exactly at each change instead of sampling.
package ledger

import (
	"fmt"
	"math"

	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// Ledger tracks bandwidth allocation on a single resource manager's disk.
// It is not safe for concurrent use; in the DES all calls happen on the
// event loop, and in live mode the owning RM serializes access.
type Ledger struct {
	capacity units.BytesPerSec
	oversub  float64 // admission oversubscription ratio, ≥ 1 (1 = nominal)

	allocated units.BytesPerSec // sum of active reservations; may exceed capacity in soft RT
	streams   int               // number of active reservations

	lastChange  simtime.Time // time of the last allocation change
	overBytes   float64      // ∫ max(0, allocated − capacity) dt so far
	allocSecs   float64      // ∫ allocated dt (bytes actually assigned over time)
	assuredSecs float64      // ∫ min(allocated, capacity) dt (assured-funded bytes)
	busySecs    float64      // ∫ [streams > 0] dt (duty cycle)

	assignedBytes float64 // S_TA: total bytes of transfers assigned to this RM
}

// New returns a ledger for a disk with the given maximum sustained
// bandwidth, starting its integrals at time start.
func New(capacity units.BytesPerSec, start simtime.Time) *Ledger {
	if capacity <= 0 {
		panic(fmt.Sprintf("ledger: non-positive capacity %v", capacity))
	}
	return &Ledger{capacity: capacity, oversub: 1, lastChange: start}
}

// SetOversub sets the admission oversubscription ratio: Fits admits
// reservations up to capacity×ratio even though the disk can only sustain
// capacity, on the bet that streams rarely all draw their reservation at
// once (the blkio tree still guarantees each stream's assured floor).
// Ratios below 1 are rejected.
func (l *Ledger) SetOversub(ratio float64) error {
	if ratio < 1 {
		return fmt.Errorf("ledger: oversubscription ratio %v below 1", ratio)
	}
	l.oversub = ratio
	return nil
}

// Oversub returns the admission oversubscription ratio (≥ 1).
func (l *Ledger) Oversub() float64 { return l.oversub }

// Allocated returns the current total reserved bandwidth.
func (l *Ledger) Allocated() units.BytesPerSec { return l.allocated }

// Streams returns the number of active reservations.
func (l *Ledger) Streams() int { return l.streams }

// Remaining returns capacity − allocated. It is negative when the RM is
// over-allocated (possible only in the soft real-time scenario).
func (l *Ledger) Remaining() units.BytesPerSec { return l.capacity - l.allocated }

// advance integrates the running integrals up to now.
func (l *Ledger) advance(now simtime.Time) {
	dt := now.Sub(l.lastChange).Seconds()
	if dt < 0 {
		panic(fmt.Sprintf("ledger: time went backwards: %v -> %v", l.lastChange, now))
	}
	if dt == 0 {
		l.lastChange = now
		return
	}
	if over := float64(l.allocated - l.capacity); over > 0 {
		l.overBytes += over * dt
		l.assuredSecs += float64(l.capacity) * dt
	} else {
		l.assuredSecs += float64(l.allocated) * dt
	}
	l.allocSecs += float64(l.allocated) * dt
	if l.streams > 0 {
		l.busySecs += dt
	}
	l.lastChange = now
}

// Allocate reserves rate starting at now. The ledger itself never refuses:
// admission control (firm vs soft real-time) is the QoS layer's decision.
func (l *Ledger) Allocate(now simtime.Time, rate units.BytesPerSec) {
	if rate < 0 {
		panic(fmt.Sprintf("ledger: negative allocation %v", rate))
	}
	l.advance(now)
	l.allocated += rate
	l.streams++
}

// Release ends a reservation of rate at now.
func (l *Ledger) Release(now simtime.Time, rate units.BytesPerSec) {
	if rate < 0 {
		panic(fmt.Sprintf("ledger: negative release %v", rate))
	}
	if l.streams <= 0 {
		panic("ledger: release with no active streams")
	}
	l.advance(now)
	l.allocated -= rate
	l.streams--
	// Float accumulation can leave tiny negative dust once all streams end.
	if l.streams == 0 || l.allocated < 0 {
		if float64(l.allocated) < -1e-6*float64(l.capacity)-1e-3 {
			panic(fmt.Sprintf("ledger: allocation underflow to %v", l.allocated))
		}
		if l.streams == 0 {
			l.allocated = 0
		} else if l.allocated < 0 {
			l.allocated = 0
		}
	}
}

// AddAssignedBytes records bytes of payload assigned to this RM (the S_TA
// denominator). Call once per admitted transfer with the transfer's size.
func (l *Ledger) AddAssignedBytes(n units.Size) {
	if n < 0 {
		panic("ledger: negative assigned bytes")
	}
	l.assignedBytes += float64(n)
}

// Snapshot freezes the integrals at now and returns the accumulated
// statistics. The ledger remains usable afterwards.
type Snapshot struct {
	Capacity units.BytesPerSec
	// Oversub is the admission oversubscription ratio the ledger ran with.
	Oversub       float64
	OverBytes     float64 // S_OA: ∫ max(0, allocated − capacity) dt — the borrowed integral
	AssignedBytes float64 // S_TA
	AllocByteSecs float64 // ∫ allocated dt
	// AssuredByteSecs is ∫ min(allocated, capacity) dt: the portion of the
	// allocation integral the disk could genuinely sustain. It splits
	// AllocByteSecs exactly into assured + over (AssuredByteSecs +
	// OverBytes == AllocByteSecs), so work-conserving utilization is an
	// exact integral, not a sample.
	AssuredByteSecs float64
	BusySecs        float64 // seconds with ≥1 active stream
	Allocated       units.BytesPerSec
	Streams         int
}

// Snapshot integrates up to now and reports totals.
func (l *Ledger) Snapshot(now simtime.Time) Snapshot {
	l.advance(now)
	return Snapshot{
		Capacity:        l.capacity,
		Oversub:         l.oversub,
		OverBytes:       l.overBytes,
		AssignedBytes:   l.assignedBytes,
		AllocByteSecs:   l.allocSecs,
		AssuredByteSecs: l.assuredSecs,
		BusySecs:        l.busySecs,
		Allocated:       l.allocated,
		Streams:         l.streams,
	}
}

// OverAllocateRatio returns S_OA / S_TA as defined in the paper, or 0 when
// nothing was assigned.
func (s Snapshot) OverAllocateRatio() float64 {
	if s.AssignedBytes <= 0 {
		return 0
	}
	return s.OverBytes / s.AssignedBytes
}

// MeanUtilization returns the time-averaged fraction of capacity allocated
// over the window ending at the snapshot, given the window length. Under
// oversubscription it can exceed 1; WorkConservingUtilization is the
// physically-deliverable counterpart.
func (s Snapshot) MeanUtilization(windowSecs float64) float64 {
	if windowSecs <= 0 || s.Capacity <= 0 {
		return 0
	}
	return s.AllocByteSecs / (float64(s.Capacity) * windowSecs)
}

// AdmitRemaining returns the admission headroom under the oversubscription
// ratio: capacity×oversub − allocated. With the default ratio 1 it equals
// Remaining.
func (l *Ledger) AdmitRemaining() units.BytesPerSec {
	return units.BytesPerSec(float64(l.capacity)*l.oversub) - l.allocated
}

// Fits reports whether an additional reservation of rate would stay within
// the admittable bandwidth — capacity×oversub — the firm real-time
// admission test, oversubscription-aware.
func (l *Ledger) Fits(rate units.BytesPerSec) bool {
	// Tolerate float dust: a reservation equal to AdmitRemaining() must fit.
	return float64(rate) <= float64(l.AdmitRemaining())+1e-9
}

// FracRemaining returns Remaining/Capacity clamped to [-inf, 1]; the dynamic
// replication trigger compares this against B_TH (e.g. 0.20).
func (l *Ledger) FracRemaining() float64 {
	return float64(l.Remaining()) / float64(l.capacity)
}

// String summarizes the ledger state for logs.
func (l *Ledger) String() string {
	pct := 100 * float64(l.allocated) / float64(l.capacity)
	if math.IsNaN(pct) {
		pct = 0
	}
	return fmt.Sprintf("alloc %v / %v (%.1f%%), %d streams", l.allocated, l.capacity, pct, l.streams)
}
