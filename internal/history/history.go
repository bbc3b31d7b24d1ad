// Package history implements the paper's two-queue historical trend
// predictor (§IV). An RM records every request arrival into the current
// recording queue; when the queue reaches a fixed sample count or exceeds an
// expiry age — whichever happens first — the queues swap roles, and the
// previously-recording queue becomes the historical reference used to
// predict the bandwidth-utilization trend:
//
//	Trend = ((B_used − FS_total/T_threshold) / 2) · min(1, T_threshold/T_distance)
//
// where T_threshold = T_end − T_start of the reference queue, FS_total is
// the cumulative size of files accessed during that window, B_used is the
// bandwidth in use when the current request arrives, and
// T_distance = T_current − T_end measures how stale the reference is.
package history

import (
	"fmt"

	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// queue accumulates one recording window.
type queue struct {
	start   simtime.Time
	end     simtime.Time
	count   int
	fsTotal float64 // cumulative bytes of accessed files
	active  bool    // has received at least one sample
}

// TwoQueue is the two-queue trend recorder. Not safe for concurrent use.
type TwoQueue struct {
	maxSamples int
	expiry     simtime.Duration

	recording queue
	reference queue
	hasRef    bool
	swaps     int
}

// Config holds the recorder's swap thresholds.
type Config struct {
	// MaxSamples triggers a swap once the recording queue holds this many
	// request arrivals.
	MaxSamples int
	// ExpirySec triggers a swap once the recording queue is older than
	// this many seconds, even if MaxSamples was not reached.
	ExpirySec float64
}

// DefaultConfig mirrors the granularity used in the evaluation: swap every
// 32 requests or 120 s, whichever comes first.
func DefaultConfig() Config { return Config{MaxSamples: 32, ExpirySec: 120} }

// New returns a recorder. maxSamples and expiry must be positive.
func New(cfg Config) (*TwoQueue, error) {
	if cfg.MaxSamples <= 0 {
		return nil, fmt.Errorf("history: MaxSamples must be positive, got %d", cfg.MaxSamples)
	}
	if cfg.ExpirySec <= 0 {
		return nil, fmt.Errorf("history: ExpirySec must be positive, got %v", cfg.ExpirySec)
	}
	return &TwoQueue{maxSamples: cfg.MaxSamples, expiry: simtime.Duration(cfg.ExpirySec)}, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config) *TwoQueue {
	tq, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tq
}

// Record notes a request arrival at now for a file of the given size.
func (t *TwoQueue) Record(now simtime.Time, size units.Size) {
	if size < 0 {
		panic("history: negative file size")
	}
	// Expiry swap happens before recording so the stale window is not
	// polluted by an arrival far in the future.
	if t.recording.active && now.Sub(t.recording.start) > t.expiry {
		t.swap(t.recording.end)
	}
	if !t.recording.active {
		t.recording.active = true
		t.recording.start = now
	}
	t.recording.count++
	t.recording.fsTotal += float64(size)
	t.recording.end = now
	if t.recording.count >= t.maxSamples {
		t.swap(now)
	}
}

// swap promotes the recording queue to reference and clears the recorder.
func (t *TwoQueue) swap(end simtime.Time) {
	t.recording.end = end
	t.reference = t.recording
	t.hasRef = true
	t.recording = queue{}
	t.swaps++
}

// Trend evaluates the paper's prediction term for a request arriving at now
// while bUsed bandwidth is allocated. With no usable reference window the
// trend is 0 (no history ⇒ no bias). A positive value indicates usage
// trending above the historical average.
func (t *TwoQueue) Trend(now simtime.Time, bUsed units.BytesPerSec) float64 {
	if !t.hasRef {
		return 0
	}
	tThreshold := t.reference.end.Sub(t.reference.start).Seconds()
	if tThreshold <= 0 {
		// A single-sample window has zero width; its average bandwidth is
		// undefined, so it offers no trend information.
		return 0
	}
	histAvg := t.reference.fsTotal / tThreshold
	raw := (float64(bUsed) - histAvg) / 2

	tDistance := now.Sub(t.reference.end).Seconds()
	scale := 1.0
	if tDistance > 0 {
		if r := tThreshold / tDistance; r < 1 {
			scale = r
		}
	}
	return raw * scale
}
