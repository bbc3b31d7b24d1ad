package dfsqos_test

import (
	"fmt"
	"strings"

	"dfsqos"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
)

// ExampleRun builds the paper's standard cluster at a reduced scale and
// reports both storage-QoS criteria. Runs are deterministic for a fixed
// Config.Seed.
func ExampleRun() {
	cfg := dfsqos.DefaultConfig()
	cfg.Workload.NumUsers = 64
	cfg.Workload.HorizonSec = 600
	cfg.Catalog.NumFiles = 100
	cfg.Policy = dfsqos.PolicyRemOnly

	cfg.Scenario = dfsqos.Soft
	soft, err := dfsqos.Run(cfg)
	if err != nil {
		panic(err)
	}
	cfg.Scenario = dfsqos.Firm
	firm, err := dfsqos.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("requests: %d\n", soft.TotalRequests)
	fmt.Printf("over-allocate: %.3f%%\n", 100*soft.OverAllocate)
	fmt.Printf("fail rate: %.3f%%\n", 100*firm.FailRate)
	// Output:
	// requests: 121
	// over-allocate: 0.000%
	// fail rate: 0.000%
}

// ExampleParsePolicy shows the paper's policy notation.
func ExampleParsePolicy() {
	p, err := dfsqos.ParsePolicy("(1,0,0)")
	if err != nil {
		panic(err)
	}
	fmt.Println(p, p.IsRandom())
	fmt.Println(dfsqos.PolicyRandom, dfsqos.PolicyRandom.IsRandom())
	// Output:
	// (1,0,0) false
	// (0,0,0) true
}

// ExampleRep shows the replication strategy notation and the paper's
// copy-count rule at the replica bound (migration).
func ExampleRep() {
	rep13 := dfsqos.Rep(1, 3)
	copies, migrate := rep13.Plan(3)
	fmt.Printf("%v at 3 replicas: copy %d, migrate %v\n", rep13, copies, migrate)

	baseline := dfsqos.BaselineReplication()
	copies, migrate = baseline.Plan(3)
	fmt.Printf("%v at 3 replicas: copy %d, migrate %v\n", baseline, copies, migrate)
	// Output:
	// Rep(1,3) at 3 replicas: copy 1, migrate true
	// Rep(3,8) at 3 replicas: copy 3, migrate false
}

// Example_quickstart builds the paper's standard cluster (16 heterogeneous
// RMs, 1000 videos × 3 replicas), runs a 30-minute multi-user workload
// under the (1,0,0) selection policy in both allocation scenarios, and
// prints the storage-QoS metrics.
func Example_quickstart() {
	cfg := dfsqos.DefaultConfig()
	cfg.Workload.NumUsers = 256
	cfg.Workload.HorizonSec = 1800 // 30 simulated minutes
	cfg.Policy = dfsqos.PolicyRemOnly

	// Soft real-time: every request is admitted; the metric is how many
	// bytes were allocated beyond the disks' sustained bandwidth.
	cfg.Scenario = dfsqos.Soft
	soft, err := dfsqos.Run(cfg)
	if err != nil {
		panic(err)
	}

	// Firm real-time: requests that no RM can fit are refused; the metric
	// is the fail rate.
	cfg.Scenario = dfsqos.Firm
	firm, err := dfsqos.Run(cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("workload: %d requests from %d users over %.0f s\n",
		soft.TotalRequests, cfg.Workload.NumUsers, cfg.Workload.HorizonSec)
	fmt.Printf("soft real-time  %-22s %6.3f%%\n", qos.Soft.Criterion(), 100*soft.OverAllocate)
	fmt.Printf("firm real-time  %-22s %6.3f%%\n", qos.Firm.Criterion(), 100*firm.FailRate)

	fmt.Println("\nper-RM accounting (soft run):")
	for _, rm := range soft.PerRM {
		fmt.Printf("  %-4v cap %-14v assigned %8.1f MB  over-allocate %6.3f%%\n",
			rm.ID, rm.Capacity, rm.Snap.AssignedBytes/1e6, 100*rm.OverAllocateRatio())
	}
	// Output:
	// workload: 1526 requests from 256 users over 1800 s
	// soft real-time  over-allocate ratio     0.872%
	// firm real-time  fail rate               3.014%
	//
	// per-RM accounting (soft run):
	//   RM1  cap 128.00 Mbit/s  assigned  16753.1 MB  over-allocate  0.000%
	//   RM2  cap 19.00 Mbit/s   assigned   3989.2 MB  over-allocate  0.487%
	//   RM3  cap 19.00 Mbit/s   assigned   3581.1 MB  over-allocate  1.127%
	//   RM4  cap 18.00 Mbit/s   assigned   3033.0 MB  over-allocate  0.850%
	//   RM5  cap 18.00 Mbit/s   assigned   3938.1 MB  over-allocate  1.711%
	//   RM6  cap 18.00 Mbit/s   assigned   3634.0 MB  over-allocate  0.703%
	//   RM7  cap 18.00 Mbit/s   assigned   4646.3 MB  over-allocate  2.104%
	//   RM8  cap 18.00 Mbit/s   assigned   4168.8 MB  over-allocate  3.107%
	//   RM9  cap 128.00 Mbit/s  assigned  19941.0 MB  over-allocate  0.000%
	//   RM10 cap 19.00 Mbit/s   assigned   4100.3 MB  over-allocate  0.383%
	//   RM11 cap 19.00 Mbit/s   assigned   4260.5 MB  over-allocate  1.791%
	//   RM12 cap 18.00 Mbit/s   assigned   3558.9 MB  over-allocate  0.873%
	//   RM13 cap 18.00 Mbit/s   assigned   4186.4 MB  over-allocate  2.083%
	//   RM14 cap 18.00 Mbit/s   assigned   3579.6 MB  over-allocate  0.543%
	//   RM15 cap 18.00 Mbit/s   assigned   3927.5 MB  over-allocate  1.540%
	//   RM16 cap 18.00 Mbit/s   assigned   3841.4 MB  over-allocate  2.561%
}

// Example_videostream is the paper's motivating scenario — concurrent
// video-streaming users with fixed-bitrate QoS needs — comparing random
// selection against the (1,0,0) policy, and static against dynamic
// replication, on one page: a condensed re-run of Tables I/III/V.
func Example_videostream() {
	run := func(users int, pol dfsqos.Policy, scen dfsqos.Scenario, strat dfsqos.Strategy) *dfsqos.Results {
		cfg := dfsqos.DefaultConfig()
		cfg.Workload.NumUsers = users
		cfg.Workload.HorizonSec = 3600
		cfg.Policy = pol
		cfg.Scenario = scen
		cfg.Replication = dfsqos.ReplicationDefaults(strat)
		res, err := dfsqos.Run(cfg)
		if err != nil {
			panic(err)
		}
		return res
	}
	fmt.Println("Video streaming under storage QoS: policy and replication comparison")
	fmt.Println()

	// Sweep the user count: over-allocation appears once aggregate demand
	// approaches the 512 Mbit/s the 16 disks can sustain.
	fmt.Println("soft real-time over-allocate ratio (static replication)")
	fmt.Printf("%8s  %10s  %10s\n", "users", "(0,0,0)", "(1,0,0)")
	for _, users := range []int{64, 128, 192, 256} {
		random := run(users, dfsqos.PolicyRandom, dfsqos.Soft, dfsqos.StaticReplication())
		rem := run(users, dfsqos.PolicyRemOnly, dfsqos.Soft, dfsqos.StaticReplication())
		fmt.Printf("%8d  %9.3f%%  %9.3f%%\n", users, 100*random.OverAllocate, 100*rem.OverAllocate)
	}

	fmt.Println()
	fmt.Println("firm real-time fail rate at 256 users")
	fmt.Printf("%-12s  %10s  %10s\n", "replication", "(0,0,0)", "(1,0,0)")
	for _, strat := range []dfsqos.Strategy{
		dfsqos.StaticReplication(),
		dfsqos.BaselineReplication(),
		dfsqos.Rep(1, 8),
		dfsqos.Rep(1, 3),
	} {
		random := run(256, dfsqos.PolicyRandom, dfsqos.Firm, strat)
		rem := run(256, dfsqos.PolicyRemOnly, dfsqos.Firm, strat)
		fmt.Printf("%-12s  %9.3f%%  %9.3f%%\n", strat, 100*random.FailRate, 100*rem.FailRate)
	}

	fmt.Println()
	fmt.Println("The paper's conclusion reproduces: (1,0,0) beats random selection,")
	fmt.Println("and dynamic replication beats static replicas; Rep(1,3) stays close")
	fmt.Println("to Rep(1,8) while never storing more than three copies of a file.")
	// Output:
	// Video streaming under storage QoS: policy and replication comparison
	//
	// soft real-time over-allocate ratio (static replication)
	//    users     (0,0,0)     (1,0,0)
	//       64      0.065%      0.000%
	//      128      4.849%      0.000%
	//      192     12.590%      0.005%
	//      256     22.577%      2.150%
	//
	// firm real-time fail rate at 256 users
	// replication      (0,0,0)     (1,0,0)
	// static           10.672%      3.982%
	// Rep(3,8)          5.711%      1.208%
	// Rep(1,8)          6.625%      0.816%
	// Rep(1,3)          5.548%      2.219%
	//
	// The paper's conclusion reproduces: (1,0,0) beats random selection,
	// and dynamic replication beats static replicas; Rep(1,3) stays close
	// to Rep(1,8) while never storing more than three copies of a file.
}

// Example_hotspot watches dynamic replication dissolve a data-access
// hotspot, where "the bandwidth utilizations of some hosts are overloaded
// while others still have a lot of available bandwidth" (paper §V). It
// runs the 256-user workload twice — static replicas vs Rep(1,3) — and
// draws ASCII utilization timelines for the large-bandwidth RM1 and the
// small-bandwidth RM2, the pair the paper plots in Fig. 6: '#' marks
// utilization and '!' over-allocation.
func Example_hotspot() {
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
			panic(err)
		}
		fmt.Printf("\n=== %s (aggregate over-allocate %.3f%%, %d replications, %d migrations)\n",
			strat, 100*res.OverAllocate, res.Replications, res.Migrations)
		for _, id := range []ids.RMID{1, 2} {
			var capacity float64
			for _, rm := range res.PerRM {
				if rm.ID == id {
					capacity = float64(rm.Capacity)
				}
			}
			fmt.Printf("%v (max %.1f Mbit/s):\n", id, capacity*8/1e6)
			s := res.Utilization[id]
			for _, p := range s.Downsample(s.Len() / 12) {
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
	}
	fmt.Println("\nUnder static replicas RM2 pins at (or beyond) its 19 Mbit/s while")
	fmt.Println("RM1 idles; Rep(1,3) migrates the busiest files onto RM1's headroom.")
	// Output:
	// Hotspot dissolution: static replicas vs Rep(1,3), policy (1,0,0)
	//
	// === static (aggregate over-allocate 2.150%, 0 replications, 0 migrations)
	// RM1 (max 128.0 Mbit/s):
	//        0s |                                        |   0.0%
	//      300s |####################                    |  52.5%
	//      600s |#####################                   |  54.1%
	//      900s |#####################                   |  53.5%
	//     1200s |###############################         |  78.1%
	//     1500s |#########################               |  64.6%
	//     1800s |################                        |  40.9%
	//     2100s |#######################                 |  57.9%
	//     2400s |###################                     |  48.8%
	//     2700s |####################                    |  52.2%
	//     3000s |######################                  |  55.5%
	//     3300s |##################                      |  46.8%
	//     3600s |#####################                   |  52.8%
	// RM2 (max 19.0 Mbit/s):
	//        0s |                                        |   0.0%
	//      300s |######################                  |  56.5%
	//      600s |################################        |  81.4%
	//      900s |######################################  |  95.3%
	//     1200s |##########################              |  65.1%
	//     1500s |##########################              |  66.9%
	//     1800s |######################################  |  96.7%
	//     2100s |################################        |  80.7%
	//     2400s |###############################         |  78.1%
	//     2700s |#####################################   |  93.3%
	//     3000s |########################################!!!| 108.2%
	//     3300s |########################################!!!!!!!| 119.6%
	//     3600s |####################################### |  99.1%
	//
	// === Rep(1,3) (aggregate over-allocate 0.375%, 123 replications, 123 migrations)
	// RM1 (max 128.0 Mbit/s):
	//        0s |                                        |   0.0%
	//      300s |####################                    |  52.5%
	//      600s |#####################                   |  54.1%
	//      900s |#########################               |  63.5%
	//     1200s |############################            |  70.6%
	//     1500s |############################            |  71.2%
	//     1800s |#########################               |  62.7%
	//     2100s |###########################             |  69.5%
	//     2400s |##############################          |  77.0%
	//     2700s |##############################          |  76.2%
	//     3000s |################################        |  82.3%
	//     3300s |################################        |  82.2%
	//     3600s |######################################  |  96.0%
	// RM2 (max 19.0 Mbit/s):
	//        0s |                                        |   0.0%
	//      300s |######################                  |  56.5%
	//      600s |################################        |  81.4%
	//      900s |#############################           |  73.9%
	//     1200s |###################################     |  88.3%
	//     1500s |####################                    |  52.2%
	//     1800s |################################        |  82.0%
	//     2100s |####################################    |  92.0%
	//     2400s |########################                |  62.2%
	//     2700s |###########################             |  69.3%
	//     3000s |###########################             |  68.0%
	//     3300s |########################                |  60.7%
	//     3600s |####################################    |  90.1%
	//
	// Under static replicas RM2 pins at (or beyond) its 19 Mbit/s while
	// RM1 idles; Rep(1,3) migrates the busiest files onto RM1's headroom.
}
