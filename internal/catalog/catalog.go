// Package catalog models the video-file corpus the paper's evaluation uses:
// "1,000 video files with different bit rates and popularity ratings that
// were extracted from YouTube". The paper only consumes three attributes of
// each video — its size, its encoded bitrate (which equals the bandwidth a
// streaming access must reserve) and its popularity rank — so the synthetic
// catalog regenerates exactly those, drawn from a bitrate-class mix typical
// of 2012-era YouTube and a Zipf popularity law.
package catalog

import (
	"fmt"
	"math"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

// File is one video in the catalog.
type File struct {
	ID ids.FileID
	// Name is a human-readable identifier ("video0042.mp4").
	Name string
	// Bitrate is the encoded video bitrate; a streaming access reserves
	// exactly this bandwidth on the serving RM (the paper's B_req).
	Bitrate units.BytesPerSec
	// DurationSec is the playback duration in seconds; an access occupies
	// the RM for this long (the paper's T_ocp).
	DurationSec float64
	// Size is Bitrate × DurationSec rounded to whole bytes.
	Size units.Size
	// PopRank is the popularity rank (0 = most popular).
	PopRank int
	// PopProb is the probability a given request targets this file.
	PopProb float64
}

// Catalog is an immutable set of files plus the popularity law over them.
type Catalog struct {
	files []File
	// popularity samples the cumulative popularity distribution over
	// file IDs, whose last entry is 1.
	popularity rng.CDF
}

// BitrateClass describes one rung of the synthetic bitrate ladder.
type BitrateClass struct {
	Name    string
	Bitrate units.BytesPerSec
	// Weight is the relative share of catalog files in this class.
	Weight float64
}

// DefaultBitrateClasses approximates the 2012 YouTube ladder the paper drew
// from: most content at 360p/480p with tails at 240p and 720p. The absolute
// rates are calibrated so that the paper's standard workload (256 users,
// 300 s mean inter-arrival) drives the 16-RM topology near its aggregate
// capacity, reproducing the load levels behind Tables I-VII.
func DefaultBitrateClasses() []BitrateClass {
	return []BitrateClass{
		{Name: "240p", Bitrate: units.Kbps(450), Weight: 0.15},
		{Name: "360p", Bitrate: units.Kbps(900), Weight: 0.35},
		{Name: "480p", Bitrate: units.Kbps(1800), Weight: 0.35},
		{Name: "720p", Bitrate: units.Kbps(3200), Weight: 0.15},
	}
}

// Config controls catalog synthesis.
type Config struct {
	// NumFiles is the catalog size. The paper uses 1000.
	NumFiles int
	// ZipfSkew is the popularity skew (probability of rank k ∝ 1/(k+1)^s).
	ZipfSkew float64
	// MeanDurationSec / MinDurationSec / MaxDurationSec bound the video
	// lengths; durations are exponential with the given mean, clamped.
	MeanDurationSec float64
	MinDurationSec  float64
	MaxDurationSec  float64
	// Classes is the bitrate ladder; nil means DefaultBitrateClasses.
	Classes []BitrateClass
	// BitrateJitter is the relative stddev applied to each file's class
	// bitrate (0.1 = ±10%), modelling per-title encoding variance.
	BitrateJitter float64
}

// DefaultConfig returns the paper's catalog parameters.
func DefaultConfig() Config {
	return Config{
		NumFiles:        1000,
		ZipfSkew:        0.95,
		MeanDurationSec: 340,
		MinDurationSec:  60,
		MaxDurationSec:  1200,
		BitrateJitter:   0.10,
	}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.NumFiles <= 0:
		return fmt.Errorf("catalog: NumFiles must be positive, got %d", c.NumFiles)
	case c.ZipfSkew <= 0:
		return fmt.Errorf("catalog: ZipfSkew must be positive, got %v", c.ZipfSkew)
	case c.MeanDurationSec <= 0:
		return fmt.Errorf("catalog: MeanDurationSec must be positive, got %v", c.MeanDurationSec)
	case c.MinDurationSec <= 0 || c.MaxDurationSec < c.MinDurationSec:
		return fmt.Errorf("catalog: bad duration bounds [%v, %v]", c.MinDurationSec, c.MaxDurationSec)
	case c.BitrateJitter < 0 || c.BitrateJitter > 0.5:
		return fmt.Errorf("catalog: BitrateJitter must be in [0, 0.5], got %v", c.BitrateJitter)
	}
	return nil
}

// Generate synthesizes a catalog from cfg using the given random stream.
func Generate(cfg Config, src *rng.Source) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	classes := cfg.Classes
	if classes == nil {
		classes = DefaultBitrateClasses()
	}
	weights := make([]float64, len(classes))
	for i, cl := range classes {
		if cl.Bitrate <= 0 {
			return nil, fmt.Errorf("catalog: class %q has non-positive bitrate", cl.Name)
		}
		weights[i] = cl.Weight
	}

	classSrc := src.Split("catalog/class")
	durSrc := src.Split("catalog/duration")
	jitterSrc := src.Split("catalog/jitter")
	popSrc := src.Split("catalog/popularity")

	zipf := rng.NewZipf(popSrc, cfg.NumFiles, cfg.ZipfSkew)

	files := make([]File, cfg.NumFiles)
	for i := range files {
		cl := classes[classSrc.WeightedChoice(weights)]
		rate := float64(cl.Bitrate)
		if cfg.BitrateJitter > 0 {
			rate *= 1 + cfg.BitrateJitter*jitterSrc.NormFloat64()
			if min := 0.5 * float64(cl.Bitrate); rate < min {
				rate = min
			}
		}
		dur := durSrc.Exp(cfg.MeanDurationSec)
		dur = math.Min(math.Max(dur, cfg.MinDurationSec), cfg.MaxDurationSec)

		files[i] = File{
			ID:          ids.FileID(i),
			Name:        fmt.Sprintf("video%04d.mp4", i),
			Bitrate:     units.BytesPerSec(rate),
			DurationSec: dur,
			Size:        units.Size(math.Round(rate * dur)),
			PopRank:     i, // rank == index: popularity is assigned by ID
			PopProb:     zipf.P(i),
		}
	}
	cum := make([]float64, cfg.NumFiles)
	acc := 0.0
	for i := range files {
		acc += files[i].PopProb
		cum[i] = acc
	}
	cum[cfg.NumFiles-1] = 1 // guard against rounding
	return &Catalog{files: files, popularity: rng.NewCDF(cum)}, nil
}

// Len returns the number of files.
func (c *Catalog) Len() int { return len(c.files) }

// File returns the file with the given id. It panics on an invalid id, which
// is always a programming error upstream.
func (c *Catalog) File(id ids.FileID) *File {
	if int(id) < 0 || int(id) >= len(c.files) {
		panic(fmt.Sprintf("catalog: invalid file id %d (catalog size %d)", id, len(c.files)))
	}
	return &c.files[id]
}

// Files returns all files in ID order. The slice is shared; callers must not
// mutate it.
func (c *Catalog) Files() []File { return c.files }

// SamplePopular draws a file ID according to the popularity law, so that
// "files with higher popularity will be accessed more times in a fixed time
// interval" (paper §VI).
func (c *Catalog) SamplePopular(src *rng.Source) ids.FileID {
	// Popularity rank equals file ID, so a Zipf rank draw is a file draw.
	// The sampler uses the caller's stream for reproducibility; the Zipf
	// CDF itself is immutable after Generate. Index returns the first
	// rank whose cumulative popularity reaches u: the rank whose CDF
	// bucket contains u.
	return ids.FileID(c.popularity.Index(src.Float64()))
}
