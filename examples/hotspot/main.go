// Hotspot: watch dynamic replication dissolve a data-access hotspot.
//
// A hotspot means "the bandwidth utilizations of some hosts are overloaded
// while others still have a lot of available bandwidth" (paper §V). This
// example runs the 256-user workload twice — static replicas vs Rep(1,3) —
// and draws ASCII utilization timelines for the large-bandwidth RM1 and the
// small-bandwidth RM2, the pair the paper plots in Fig. 6.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"strings"

	"dfsqos"
	"dfsqos/internal/ids"
	"dfsqos/internal/metrics"
)

func main() {
	fmt.Println("Hotspot dissolution: static replicas vs Rep(1,3), policy (1,0,0)")
	for _, strat := range []dfsqos.Strategy{dfsqos.StaticReplication(), dfsqos.Rep(1, 3)} {
		cfg := dfsqos.DefaultConfig()
		cfg.Workload.NumUsers = 256
		cfg.Workload.HorizonSec = 3600
		cfg.Policy = dfsqos.PolicyRemOnly
		cfg.Scenario = dfsqos.Soft
		cfg.Replication = dfsqos.ReplicationDefaults(strat)
		cfg.SampleEverySec = 30
		res, err := dfsqos.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== %s (aggregate over-allocate %.3f%%, %d replications, %d migrations)\n",
			strat, 100*res.OverAllocate, res.Replications, res.Migrations)
		for _, id := range []ids.RMID{1, 2} {
			var capBW float64
			for _, rm := range res.PerRM {
				if rm.ID == id {
					capBW = float64(rm.Capacity)
				}
			}
			drawTimeline(id, res.Utilization[id], capBW)
		}
	}
	fmt.Println("\nUnder static replicas RM2 pins at (or beyond) its 19 Mbit/s while")
	fmt.Println("RM1 idles; Rep(1,3) migrates the busiest files onto RM1's headroom.")
}

// drawTimeline renders one RM's allocated bandwidth as a bar per sample
// bucket, with '#' marking utilization and '!' marking over-allocation.
func drawTimeline(id ids.RMID, s *metrics.Series, capacity float64) {
	fmt.Printf("%v (max %.1f Mbit/s):\n", id, capacity*8/1e6)
	pts := s.Downsample(s.Len() / 24)
	for _, p := range pts {
		frac := p.Value / capacity
		width := int(frac * 40)
		over := ""
		if width > 40 {
			over = strings.Repeat("!", min(width-40, 12))
			width = 40
		}
		fmt.Printf("  %6.0fs |%-40s%s| %5.1f%%\n",
			p.At.Seconds(), strings.Repeat("#", width), over, 100*frac)
	}
}
