package units

// ToMBps reports the rate in megabytes per second.
func (b BytesPerSec) ToMBps() float64 { return float64(b) / 1e6 }

// ToMbps reports the rate in megabits per second.
func (b BytesPerSec) ToMbps() float64 { return float64(b) * 8 / 1e6 }
