// Command workloadgen generates the paper's multi-user access pattern —
// NET request arrivals over a Zipf-popular video catalog — as a JSON trace
// that the request scheduler (dfsc -replay, or an external tool) can replay.
//
//	workloadgen -users 256 -horizon 7200 -mean 300 -seed 1 > trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"dfsqos/internal/catalog"
	"dfsqos/internal/rng"
	"dfsqos/internal/workload"
)

func main() {
	var (
		users   = flag.Int("users", 256, "number of concurrent users")
		dfscs   = flag.Int("dfscs", 8, "number of DFS clients users spread over")
		mean    = flag.Float64("mean", 300, "per-user mean inter-arrival time β (seconds)")
		horizon = flag.Float64("horizon", 7200, "pattern length (seconds)")
		files   = flag.Int("files", 1000, "catalog size")
		skew    = flag.Float64("skew", 0, "Zipf popularity skew (0 = paper default)")
		seed    = flag.Uint64("seed", 1, "master random seed")
		out     = flag.String("o", "-", "output path ('-' = stdout)")
	)
	flag.Parse()

	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = *files
	if *skew > 0 {
		catCfg.ZipfSkew = *skew
	}
	master := rng.New(*seed)
	cat, err := catalog.Generate(catCfg, master.Split("catalog"))
	if err != nil {
		fail(err)
	}
	pattern, err := workload.Generate(workload.Config{
		NumUsers:       *users,
		NumDFSC:        *dfscs,
		MeanArrivalSec: *mean,
		HorizonSec:     *horizon,
	}, cat, master.Split("workload"))
	if err != nil {
		fail(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := pattern.Save(w); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "workloadgen: %d requests over %.0fs for %d users (seed %d)\n",
		pattern.Len(), *horizon, *users, *seed)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
	os.Exit(1)
}
