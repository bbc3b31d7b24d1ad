// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each runner builds the paper's standard cluster
// configuration, sweeps the dimension the table varies (policy, user count,
// replication strategy or destination selection), and renders rows in the
// paper's layout so measured numbers can be placed next to the published
// ones. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// recorded results.
package experiments

import (
	"fmt"
	"strings"

	"dfsqos/internal/cluster"
	"dfsqos/internal/ids"
	"dfsqos/internal/metrics"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/selection"
)

// Options scale an experiment run. The zero value is completed by
// Defaults(): the paper's full-size configuration.
type Options struct {
	// Seed is the master seed shared by all runs of the experiment.
	Seed uint64
	// Users are the workload sizes swept by the user-count tables.
	Users []int
	// StandardUsers is the user count of single-load experiments
	// (paper: 256).
	StandardUsers int
	// HorizonSec is the simulated run length (paper: 7200 s).
	HorizonSec float64
	// SampleEverySec is the sampling period of figure experiments.
	SampleEverySec float64
	// Repeats averages each table cell over this many runs with derived
	// seeds (≤1: single run, the default). Figure series always come
	// from the base seed.
	Repeats int
}

// Defaults returns the paper's experiment scale.
func Defaults() Options {
	return Options{
		Seed:           1,
		Users:          []int{64, 128, 192, 256},
		StandardUsers:  256,
		HorizonSec:     7200,
		SampleEverySec: 10,
	}
}

// Quick returns a reduced scale for smoke tests and benchmarks: half the
// horizon and a trimmed user sweep. The qualitative ordering of policies
// and strategies is preserved.
func Quick() Options {
	return Options{
		Seed:           1,
		Users:          []int{64, 256},
		StandardUsers:  256,
		HorizonSec:     1800,
		SampleEverySec: 30,
	}
}

func (o Options) normalize() Options {
	d := Defaults()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if len(o.Users) == 0 {
		o.Users = d.Users
	}
	if o.StandardUsers == 0 {
		o.StandardUsers = d.StandardUsers
	}
	if o.HorizonSec == 0 {
		o.HorizonSec = d.HorizonSec
	}
	if o.SampleEverySec == 0 {
		o.SampleEverySec = d.SampleEverySec
	}
	return o
}

// baseConfig is the shared starting point of all experiments.
func (o Options) baseConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Workload.HorizonSec = o.HorizonSec
	cfg.Workload.NumUsers = o.StandardUsers
	return cfg
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("table1" ... "fig7").
	ID string
	// Title describes what the paper reports there.
	Title string
	// Text is the rendered table or series listing.
	Text string
	// Cells holds the numeric results keyed by "row/col" for tests and
	// EXPERIMENTS.md extraction; ratio-valued (0.0977 = 9.77%).
	Cells map[string]float64
	// Series holds figure data keyed by curve name.
	Series map[string]*metrics.Series
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Cells: make(map[string]float64), Series: make(map[string]*metrics.Series)}
}

// strategies returns the four replication strategies of Tables IV-V in
// paper order.
func strategies() []replication.Strategy {
	return []replication.Strategy{
		replication.Static(),
		replication.Baseline(),
		replication.Rep(1, 8),
		replication.Rep(1, 3),
	}
}

// Table1 — over-allocate ratio in soft real-time allocation: the five
// selection policies × {64,128,192,256} users, static replication.
func Table1(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("table1", "Over-allocate ratio in soft real-time allocation (static replication)")
	tab := metrics.NewTable(append([]string{"(a,b,g) \\ users"}, usersHeader(o.Users)...)...)
	for _, pol := range selection.PaperPolicies() {
		row := []string{pol.String()}
		for _, users := range o.Users {
			cfg := o.baseConfig()
			cfg.Policy = pol
			cfg.Scenario = qos.Soft
			cfg.Workload.NumUsers = users
			r, err := avgRun(cfg, o)
			if err != nil {
				return nil, err
			}
			res.Cells[fmt.Sprintf("%s/%d", pol, users)] = r.OverAllocate
			row = append(row, metrics.Pct(r.OverAllocate))
		}
		tab.AddRow(row...)
	}
	res.Text = tab.String()
	return res, nil
}

// Table2 — per-RM over-allocate ratio in soft real-time allocation with the
// standard user count, for the five policies.
func Table2(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("table2", fmt.Sprintf("Per-RM over-allocate ratio, soft real-time, %d users", o.StandardUsers))
	header := []string{"(a,b,g) \\ RM"}
	for i := 1; i <= 16; i++ {
		header = append(header, fmt.Sprintf("RM%d", i))
	}
	tab := metrics.NewTable(header...)
	for _, pol := range selection.PaperPolicies() {
		cfg := o.baseConfig()
		cfg.Policy = pol
		cfg.Scenario = qos.Soft
		r, err := avgRun(cfg, o)
		if err != nil {
			return nil, err
		}
		row := []string{pol.String()}
		for _, rmRes := range r.PerRM {
			oa := rmRes.OverAllocateRatio()
			res.Cells[fmt.Sprintf("%s/%s", pol, rmRes.ID)] = oa
			row = append(row, metrics.Pct(oa))
		}
		tab.AddRow(row...)
	}
	res.Text = tab.String()
	return res, nil
}

// Table3 — fail rate in firm real-time allocation: five policies × user
// sweep, static replication.
func Table3(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("table3", "Fail rate on average in firm real-time allocation (static replication)")
	tab := metrics.NewTable(append([]string{"(a,b,g) \\ users"}, usersHeader(o.Users)...)...)
	for _, pol := range selection.PaperPolicies() {
		row := []string{pol.String()}
		for _, users := range o.Users {
			cfg := o.baseConfig()
			cfg.Policy = pol
			cfg.Scenario = qos.Firm
			cfg.Workload.NumUsers = users
			r, err := avgRun(cfg, o)
			if err != nil {
				return nil, err
			}
			res.Cells[fmt.Sprintf("%s/%d", pol, users)] = r.FailRate
			row = append(row, metrics.Pct(r.FailRate))
		}
		tab.AddRow(row...)
	}
	res.Text = tab.String()
	return res, nil
}

// Table4 — average over-allocate ratio with dynamic replication in soft
// real-time allocation: four strategies × five policies.
func Table4(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("table4", "Average over-allocate ratio with dynamic replication, soft real-time")
	header := []string{"Rep \\ (a,b,g)"}
	for _, pol := range selection.PaperPolicies() {
		header = append(header, pol.String())
	}
	tab := metrics.NewTable(header...)
	for _, strat := range strategies() {
		row := []string{strat.String()}
		for _, pol := range selection.PaperPolicies() {
			cfg := o.baseConfig()
			cfg.Policy = pol
			cfg.Scenario = qos.Soft
			cfg.Replication = replication.DefaultConfig(strat)
			r, err := avgRun(cfg, o)
			if err != nil {
				return nil, err
			}
			res.Cells[fmt.Sprintf("%s/%s", strat, pol)] = r.OverAllocate
			row = append(row, metrics.Pct(r.OverAllocate))
		}
		tab.AddRow(row...)
	}
	res.Text = tab.String()
	return res, nil
}

// Table5 — average fail rate with dynamic replication in firm real-time
// allocation: four strategies × policies {(0,0,0), (1,0,0)}.
func Table5(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("table5", "Average fail rate with dynamic replication, firm real-time")
	pols := []selection.Policy{selection.Random, selection.RemOnly}
	tab := metrics.NewTable("Rep \\ (a,b,g)", pols[0].String(), pols[1].String())
	for _, strat := range strategies() {
		row := []string{strat.String()}
		for _, pol := range pols {
			cfg := o.baseConfig()
			cfg.Policy = pol
			cfg.Scenario = qos.Firm
			cfg.Replication = replication.DefaultConfig(strat)
			r, err := avgRun(cfg, o)
			if err != nil {
				return nil, err
			}
			res.Cells[fmt.Sprintf("%s/%s", strat, pol)] = r.FailRate
			row = append(row, metrics.Pct(r.FailRate))
		}
		tab.AddRow(row...)
	}
	res.Text = tab.String()
	return res, nil
}

// destStrategies returns the destination selections of Tables VI-VII.
func destStrategies() []replication.DestStrategy {
	return []replication.DestStrategy{
		replication.DestRandom,
		replication.DestLBF,
		replication.DestWeighted,
	}
}

// Table6 — average over-allocate ratio of Rep(1,3) under the three
// destination-selection strategies, soft real-time.
func Table6(o Options) (*Result, error) {
	return destTable(o, "table6",
		"Average over-allocate ratio of Rep(1,3) with destination selection, soft real-time",
		qos.Soft)
}

// Table7 — average fail rate of Rep(1,3) under the three destination
// selection strategies, firm real-time.
func Table7(o Options) (*Result, error) {
	return destTable(o, "table7",
		"Average fail rate of Rep(1,3) with destination selection, firm real-time",
		qos.Firm)
}

func destTable(o Options, id, title string, scen qos.Scenario) (*Result, error) {
	o = o.normalize()
	res := newResult(id, title)
	pols := []selection.Policy{selection.Random, selection.RemOnly}
	tab := metrics.NewTable("Destination \\ (a,b,g)", pols[0].String(), pols[1].String())
	for _, dest := range destStrategies() {
		row := []string{dest.String()}
		for _, pol := range pols {
			cfg := o.baseConfig()
			cfg.Policy = pol
			cfg.Scenario = scen
			cfg.Replication = replication.DefaultConfig(replication.Rep(1, 3))
			cfg.Replication.Dest = dest
			r, err := avgRun(cfg, o)
			if err != nil {
				return nil, err
			}
			val := r.OverAllocate
			if scen.IsFirm() {
				val = r.FailRate
			}
			res.Cells[fmt.Sprintf("%s/%s", dest, pol)] = val
			row = append(row, metrics.Pct(val))
		}
		tab.AddRow(row...)
	}
	res.Text = tab.String()
	return res, nil
}

// Fig4 — the over-allocate situation in the soft real-time scenario: the
// allocated bandwidth of the most over-allocated RM over time against its
// maximum bandwidth (the paper's dashed line), under random selection.
func Fig4(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("fig4", "Over-allocate situation of one RM, soft real-time, random selection")
	cfg := o.baseConfig()
	cfg.Policy = selection.Random
	cfg.Scenario = qos.Soft
	cfg.SampleEverySec = o.SampleEverySec
	r, err := cluster.RunConfig(cfg)
	if err != nil {
		return nil, err
	}
	// Pick the RM with the worst over-allocate ratio, as the paper's
	// illustration does.
	worst := r.PerRM[0]
	for _, rmRes := range r.PerRM[1:] {
		if rmRes.OverAllocateRatio() > worst.OverAllocateRatio() {
			worst = rmRes
		}
	}
	s := r.Utilization[worst.ID]
	res.Series["allocated"] = s
	res.Cells["capacity"] = float64(worst.Capacity)
	res.Cells["overAllocateRatio"] = worst.OverAllocateRatio()
	res.Text = renderSeries(fmt.Sprintf("%v allocated bandwidth (capacity %v, R_OA %s)",
		worst.ID, worst.Capacity, metrics.Pct(worst.OverAllocateRatio())), s, float64(worst.Capacity))
	return res, nil
}

// Fig5 — aggregated bandwidth utilization in firm real-time allocation:
// (a) the two extra-large RMs (RM1+RM9), (b) the fourteen small RMs, for
// policies (0,0,0) and (1,0,0), static replication.
func Fig5(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("fig5", "Aggregated bandwidth utilization, firm real-time (a: RM1+RM9, b: small RMs)")
	var text strings.Builder
	for _, pol := range []selection.Policy{selection.Random, selection.RemOnly} {
		cfg := o.baseConfig()
		cfg.Policy = pol
		cfg.Scenario = qos.Firm
		cfg.SampleEverySec = o.SampleEverySec
		r, err := cluster.RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		var largeSeries, smallSeries []*metrics.Series
		for _, rmRes := range r.PerRM {
			if rmRes.ID == 1 || rmRes.ID == 9 {
				largeSeries = append(largeSeries, r.Utilization[rmRes.ID])
			} else {
				smallSeries = append(smallSeries, r.Utilization[rmRes.ID])
			}
		}
		large := metrics.Sum(fmt.Sprintf("large/%s", pol), largeSeries...)
		small := metrics.Sum(fmt.Sprintf("small/%s", pol), smallSeries...)
		res.Series[large.Name] = large
		res.Series[small.Name] = small
		res.Cells[fmt.Sprintf("largeMean/%s", pol)] = large.Mean()
		res.Cells[fmt.Sprintf("smallMean/%s", pol)] = small.Mean()
		text.WriteString(renderSeries(fmt.Sprintf("(a) RM1+RM9, policy %s", pol), large, 0))
		text.WriteString(renderSeries(fmt.Sprintf("(b) small RMs, policy %s", pol), small, 0))
	}
	res.Text = text.String()
	return res, nil
}

// Fig6 — bandwidth utilization of large-bandwidth RM1 and small-bandwidth
// RM2 over time with the four dynamic replication strategies, policy
// (1,0,0), soft real-time.
func Fig6(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("fig6", "Bandwidth utilization of RM1 and RM2 under four replication strategies, policy (1,0,0)")
	var text strings.Builder
	for _, strat := range strategies() {
		cfg := o.baseConfig()
		cfg.Policy = selection.RemOnly
		cfg.Scenario = qos.Soft
		cfg.Replication = replication.DefaultConfig(strat)
		cfg.SampleEverySec = o.SampleEverySec
		r, err := cluster.RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		for _, id := range []ids.RMID{1, 2} {
			s := r.Utilization[id]
			name := fmt.Sprintf("%v/%s", id, strat)
			res.Series[name] = s
			res.Cells[fmt.Sprintf("mean/%s", name)] = s.Mean()
			var capacity float64
			for _, rmRes := range r.PerRM {
				if rmRes.ID == id {
					capacity = float64(rmRes.Capacity)
				}
			}
			text.WriteString(renderSeries(fmt.Sprintf("%v under %s (max %v)", id, strat, r.PerRM[id-1].Capacity), s, capacity))
		}
	}
	res.Text = text.String()
	return res, nil
}

// Fig7 — per-RM over-allocate ratio: static replication vs Rep(1,3), policy
// (1,0,0), soft real-time.
func Fig7(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("fig7", "Per-RM over-allocate ratio, static vs Rep(1,3), policy (1,0,0)")
	tab := metrics.NewTable("RM", "static", "Rep(1,3)")
	type runOut struct{ per []metrics.RMResult }
	var runs []runOut
	for _, strat := range []replication.Strategy{replication.Static(), replication.Rep(1, 3)} {
		cfg := o.baseConfig()
		cfg.Policy = selection.RemOnly
		cfg.Scenario = qos.Soft
		cfg.Replication = replication.DefaultConfig(strat)
		r, err := cluster.RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, runOut{per: r.PerRM})
	}
	for i := range runs[0].per {
		id := runs[0].per[i].ID
		sta := runs[0].per[i].OverAllocateRatio()
		rep := runs[1].per[i].OverAllocateRatio()
		res.Cells[fmt.Sprintf("static/%v", id)] = sta
		res.Cells[fmt.Sprintf("rep13/%v", id)] = rep
		tab.AddRow(id.String(), metrics.Pct(sta), metrics.Pct(rep))
	}
	res.Text = tab.String()
	return res, nil
}

// Run dispatches one experiment by id ("table1" ... "fig7").
func Run(id string, o Options) (*Result, error) {
	switch strings.ToLower(id) {
	case "table1":
		return Table1(o)
	case "table2":
		return Table2(o)
	case "table3":
		return Table3(o)
	case "table4":
		return Table4(o)
	case "table5":
		return Table5(o)
	case "table6":
		return Table6(o)
	case "table7":
		return Table7(o)
	case "fig4":
		return Fig4(o)
	case "fig5":
		return Fig5(o)
	case "fig6":
		return Fig6(o)
	case "fig7":
		return Fig7(o)
	case "ablation-bth":
		return AblationBTH(o)
	case "ablation-cooldown":
		return AblationCooldown(o)
	case "ablation-speed":
		return AblationSpeed(o)
	case "ablation-charge":
		return AblationCharge(o)
	case "ablation-skew":
		return AblationSkew(o)
	case "ablation-gc":
		return AblationGC(o)
	case "ablation-flashcrowd":
		return AblationFlashCrowd(o)
	case "ablation-ecnp":
		return AblationECNP(o)
	case "ablation-weights":
		return AblationWeights(o)
	case "ablation-mmshards":
		return AblationMMShards(o)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the paper's experiment identifiers in paper order.
func IDs() []string {
	return []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig4", "fig5", "fig6", "fig7"}
}

// AblationIDs lists the extension experiments (DESIGN.md §6).
func AblationIDs() []string {
	return []string{
		"ablation-bth", "ablation-cooldown", "ablation-speed",
		"ablation-charge", "ablation-skew", "ablation-gc",
		"ablation-flashcrowd", "ablation-ecnp", "ablation-weights",
		"ablation-mmshards",
	}
}

func usersHeader(users []int) []string {
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = fmt.Sprintf("%d", u)
	}
	return out
}

// renderSeries prints a compact textual sparkline of a series in MB/s with
// an optional capacity line, matching the figures' units.
func renderSeries(title string, s *metrics.Series, capacity float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	pts := s.Downsample(max(1, s.Len()/24))
	for _, p := range pts {
		fmt.Fprintf(&b, "  t=%7.0fs  %8.3f MB/s", p.At.Seconds(), p.Value/1e6)
		if capacity > 0 {
			fmt.Fprintf(&b, "  (max %.3f MB/s)", capacity/1e6)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
