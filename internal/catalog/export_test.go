package catalog

import "dfsqos/internal/units"

// MeanBitrate returns the popularity-weighted mean bitrate, i.e. the
// expected bandwidth reservation of a random request.
func (c *Catalog) MeanBitrate() units.BytesPerSec {
	var sum float64
	for i := range c.files {
		sum += float64(c.files[i].Bitrate) * c.files[i].PopProb
	}
	return units.BytesPerSec(sum)
}

// MeanDuration returns the popularity-weighted mean occupation time of a
// random request, in seconds.
func (c *Catalog) MeanDuration() float64 {
	var sum float64
	for i := range c.files {
		sum += c.files[i].DurationSec * c.files[i].PopProb
	}
	return sum
}

// TotalBytes returns the summed size of all files.
func (c *Catalog) TotalBytes() units.Size {
	var total units.Size
	for i := range c.files {
		total += c.files[i].Size
	}
	return total
}
