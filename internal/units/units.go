// Package units defines the bandwidth and size units used throughout the
// storage-QoS system, together with parsing and formatting helpers.
//
// The paper quotes disk bandwidth in Mbit/s ("128Mbps, i.e. 16MB/s") and file
// sizes in bytes; internally every rate is carried as bytes per second in a
// float64 so that the bandwidth ledger can integrate allocation trajectories
// exactly without unit juggling at call sites.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BytesPerSec is a bandwidth in bytes per second.
type BytesPerSec float64

// Size is a data size in bytes.
type Size int64

// Common rate constructors. The paper's topology is specified in Mbit/s, so
// Mbps is the constructor used by nearly all configuration code.
const (
	// KB, MB, GB are decimal (SI) sizes, matching how disk vendors and the
	// paper quote capacities (1 TB disk, 16 GB virtual disk).
	KB Size = 1000
	MB Size = 1000 * KB
	GB Size = 1000 * MB

	// KiB, MiB, GiB are binary sizes, used by the block-device layer.
	KiB Size = 1024
	MiB Size = 1024 * KiB
	GiB Size = 1024 * MiB
)

// Mbps converts megabits per second to BytesPerSec.
// The paper equates 128 Mbit/s with 16 MB/s, i.e. decimal megabits.
func Mbps(v float64) BytesPerSec { return BytesPerSec(v * 1e6 / 8) }

// Kbps converts kilobits per second to BytesPerSec.
func Kbps(v float64) BytesPerSec { return BytesPerSec(v * 1e3 / 8) }

// MBps converts megabytes per second to BytesPerSec.
func MBps(v float64) BytesPerSec { return BytesPerSec(v * 1e6) }

// IsZero reports whether the rate is exactly zero.
func (b BytesPerSec) IsZero() bool { return b == 0 }

// String formats the rate with an adaptive unit, e.g. "18.00 Mbit/s".
func (b BytesPerSec) String() string {
	bits := float64(b) * 8
	switch {
	case math.Abs(bits) >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", bits/1e9)
	case math.Abs(bits) >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", bits/1e6)
	case math.Abs(bits) >= 1e3:
		return fmt.Sprintf("%.2f kbit/s", bits/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", bits)
	}
}

// String formats the size with an adaptive decimal unit, e.g. "1.50 GB".
func (s Size) String() string {
	v := float64(s)
	switch {
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("%.2f GB", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.2f MB", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.2f kB", v/1e3)
	default:
		return fmt.Sprintf("%d B", int64(v))
	}
}

// Bytes returns the size as an int64 byte count.
func (s Size) Bytes() int64 { return int64(s) }

// ParseRate parses strings such as "18Mbps", "1.8 Mbit/s", "16MB/s",
// "2048Kbps" or a bare number of bytes per second ("2250000").
func ParseRate(s string) (BytesPerSec, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty rate")
	}
	lower := strings.ToLower(t)
	type suffix struct {
		name string
		conv func(float64) BytesPerSec
	}
	// Longer suffixes first so "mbit/s" is not shadowed by "b/s".
	suffixes := []suffix{
		{"gbit/s", func(v float64) BytesPerSec { return Mbps(v * 1000) }},
		{"mbit/s", Mbps},
		{"kbit/s", Kbps},
		{"gbps", func(v float64) BytesPerSec { return Mbps(v * 1000) }},
		{"mbps", Mbps},
		{"kbps", Kbps},
		{"gb/s", func(v float64) BytesPerSec { return MBps(v * 1000) }},
		{"mb/s", MBps},
		{"kb/s", func(v float64) BytesPerSec { return BytesPerSec(v * 1e3) }},
		{"b/s", func(v float64) BytesPerSec { return BytesPerSec(v) }},
	}
	for _, sf := range suffixes {
		if strings.HasSuffix(lower, sf.name) {
			num := strings.TrimSpace(lower[:len(lower)-len(sf.name)])
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: bad rate %q: %w", s, err)
			}
			return sf.conv(v), nil
		}
	}
	v, err := strconv.ParseFloat(lower, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad rate %q: %w", s, err)
	}
	return BytesPerSec(v), nil
}

// ParseSize parses strings such as "4MB", "16 GB", "512KiB" or a bare byte
// count.
func ParseSize(s string) (Size, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	lower := strings.ToLower(t)
	type suffix struct {
		name string
		mult float64
	}
	suffixes := []suffix{
		{"gib", float64(GiB)},
		{"mib", float64(MiB)},
		{"kib", float64(KiB)},
		{"gb", float64(GB)},
		{"mb", float64(MB)},
		{"kb", float64(KB)},
		{"b", 1},
	}
	for _, sf := range suffixes {
		if strings.HasSuffix(lower, sf.name) {
			num := strings.TrimSpace(lower[:len(lower)-len(sf.name)])
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: bad size %q: %w", s, err)
			}
			return Size(math.Round(v * sf.mult)), nil
		}
	}
	v, err := strconv.ParseFloat(lower, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %w", s, err)
	}
	return Size(math.Round(v)), nil
}

// DurationSec returns how many seconds a transfer of size s takes at rate b.
// A non-positive rate yields +Inf, which callers treat as "never completes".
func DurationSec(s Size, b BytesPerSec) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return float64(s) / float64(b)
}
