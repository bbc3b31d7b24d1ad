// Package dfsqos is a distributed file system with storage-QoS provision
// for clouds — a from-scratch Go reproduction of Wang, Yeh and Tseng,
// "Provision of Storage QoS in Distributed File Systems for Clouds"
// (ICPP 2012).
//
// The system allocates assured disk bandwidth to every admitted data
// transfer while maximizing aggregate disk-bandwidth utilization, using
// three cooperating mechanisms:
//
//   - an ECNP-based DFS (DFS Client / Resource Manager / Metadata Manager
//     mapped onto the Requester / Storage Provider / Mapper roles),
//   - resource-selection policies scoring each RM's bid as
//     α·B_rem + β·Trend − γ·OccBias·B_req,
//   - dynamic replication Rep(N_REP, N_MAXR) that copies or migrates the
//     busiest files away from RMs whose remaining bandwidth falls below
//     B_TH, with Random / LBF / Weighted destination selection.
//
// This facade re-exports the stable surface of the internal packages:
//
//   - Cluster simulation (the paper's testbed substitute): Config,
//     Build/Run, the 16-RM paper topology.
//   - Policies and strategies: the (α,β,γ) triple, Rep(n,m), destination
//     strategies, QoS scenarios.
//   - Experiments: every table and figure of the paper's evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results next to the paper's numbers. The cmd/ directory holds the
// runnable daemons (mmd, rmd, dfsc) and the qosbench experiment driver;
// example_test.go holds the walkthroughs, checked by go test, and
// examples/livecluster the live TCP one.
package dfsqos

import (
	"dfsqos/internal/cluster"
	"dfsqos/internal/experiments"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// Config describes one simulated deployment and workload; see
// DefaultConfig for the paper's standard setup.
type Config = cluster.Config

// Results aggregates a run's outcome: fail rate, over-allocate ratio,
// per-RM accounting and optional utilization time series.
type Results = cluster.Results

// Cluster is a fully wired simulated deployment.
type Cluster = cluster.Cluster

// Policy is the (α, β, γ) resource-selection weight triple.
type Policy = selection.Policy

// Strategy is the Rep(N_REP, N_MAXR) dynamic replication strategy.
type Strategy = replication.Strategy

// ReplicationConfig bundles the dynamic-replication tunables (B_TH,
// cooldown, speed, N_BF coverage, B_REV, destination selection).
type ReplicationConfig = replication.Config

// DestStrategy selects replication destinations (Random, LBF, Weighted).
type DestStrategy = replication.DestStrategy

// Scenario is the allocation discipline (Soft or Firm real-time).
type Scenario = qos.Scenario

// ExperimentOptions scales the paper-evaluation runners.
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated table or figure.
type ExperimentResult = experiments.Result

// Canonical selection policies (paper Tables I-IV).
var (
	PolicyRandom   = selection.Random   // (0,0,0): uniform random
	PolicyRemOnly  = selection.RemOnly  // (1,0,0): remaining bandwidth
	PolicyRemOcc   = selection.RemOcc   // (1,0,1)
	PolicyRemTrend = selection.RemTrend // (1,1,0)
	PolicyFull     = selection.Full     // (1,1,1)
)

// QoS scenarios.
const (
	Soft = qos.Soft
	Firm = qos.Firm
)

// Destination-selection strategies (paper Tables VI-VII).
const (
	DestRandom   = replication.DestRandom
	DestLBF      = replication.DestLBF
	DestWeighted = replication.DestWeighted
)

// DefaultConfig returns the paper's standard experiment setup: the 16-RM
// heterogeneous topology, 1000 files × 3 static replicas, 256 users over
// 2 simulated hours, policy (1,0,0), soft real-time, static replication.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// PaperTopology returns the evaluation's 16 RM capacities (RM1/RM9 =
// 128 Mbit/s, RM2/3/10/11 = 19 Mbit/s, the rest 18 Mbit/s).
func PaperTopology() []units.BytesPerSec { return cluster.PaperTopology() }

// Build wires a cluster without running it (inspect, then call Run).
func Build(cfg Config) (*Cluster, error) { return cluster.Build(cfg) }

// Run builds and executes one configuration, returning its metrics.
func Run(cfg Config) (*Results, error) { return cluster.RunConfig(cfg) }

// ParsePolicy parses "(1,0,0)" into a Policy.
func ParsePolicy(s string) (Policy, error) { return selection.ParsePolicy(s) }

// StaticReplication is the static-replication strategy (no dynamic copies).
func StaticReplication() Strategy { return replication.Static() }

// Rep constructs the Rep(nRep, nMaxR) strategy; Rep(1,3) is the paper's
// recommended practical configuration.
func Rep(nRep, nMaxR int) Strategy { return replication.Rep(nRep, nMaxR) }

// BaselineReplication is the paper's baseline dynamic strategy Rep(3,8).
func BaselineReplication() Strategy { return replication.Baseline() }

// ReplicationDefaults returns the evaluation's fixed replication
// parameters (B_TH = 20%, 60 s cooldown, 1.8 Mbit/s transfers, N_BF
// covering 50% of accesses, B_REV = 2×bitrate, Random destinations).
func ReplicationDefaults(s Strategy) ReplicationConfig { return replication.DefaultConfig(s) }

// RunExperiment regenerates one of the paper's tables or figures by id
// ("table1" … "table7", "fig4" … "fig7").
func RunExperiment(id string, o ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, o)
}

// ExperimentIDs lists the experiment identifiers in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// PaperScale returns the full-size experiment options (2 h horizon,
// 64-256 user sweeps); QuickScale is a reduced variant for smoke runs.
func PaperScale() ExperimentOptions { return experiments.Defaults() }

// QuickScale returns reduced-scale experiment options.
func QuickScale() ExperimentOptions { return experiments.Quick() }

// Mbps converts megabits per second into the bandwidth unit used across
// the API.
func Mbps(v float64) units.BytesPerSec { return units.Mbps(v) }
