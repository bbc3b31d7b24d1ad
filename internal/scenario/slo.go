package scenario

import (
	"fmt"

	"dfsqos/internal/ids"
)

// SLO is one scenario's declarative service-level objective: ceilings on
// failure and on the live slice's tail latency, floors on utilization. A
// zero field disables that check, so a scenario declares only the
// objectives it owns.
//
// The DES gates no latency. A simulated request takes no virtual time, so
// the only latency a DES class could report is the wall-clock time the
// simulator spent dispatching it: the engine's CPU cost, not a service
// latency. So no builtin scenario sets a DES latency ceiling, and the
// per-tenant and victim gates, both read off DES passes, are fail rates
// only.
type SLO struct {
	// MaxP50Sec / MaxP99Sec / MaxP999Sec cap, in seconds, the latency
	// percentiles of every class in Result.Classes that reports them. A
	// scenario run's classes are DES classes and report none, so in a run
	// these bind nothing; a caller that fills Classes from a recorder of
	// real latencies (Recorder.Observe) gates those.
	MaxP50Sec  float64 `json:"max_p50_sec,omitempty"`
	MaxP99Sec  float64 `json:"max_p99_sec,omitempty"`
	MaxP999Sec float64 `json:"max_p999_sec,omitempty"`
	// MaxFailRate caps the run's aggregate fail rate (failed/total).
	MaxFailRate float64 `json:"max_fail_rate,omitempty"`
	// MaxOverAllocate caps the soft-scenario over-allocate ratio
	// Σ S_OA / Σ S_TA — the paper's QoS-degradation criterion.
	MaxOverAllocate float64 `json:"max_over_allocate,omitempty"`
	// MinUtilization floors the run's aggregate utilization (mean
	// allocated bandwidth over aggregate capacity; can exceed 1 under
	// soft over-allocation).
	MinUtilization float64 `json:"min_utilization,omitempty"`
	// MinWorkUtilization floors the exact assured-bandwidth utilization
	// (Σ assured byte·seconds over capacity × horizon) — the
	// work-conserving gate: an oversubscribing scenario must actually
	// keep this much real capacity committed, not merely admit more.
	MinWorkUtilization float64 `json:"min_work_utilization,omitempty"`
	// MaxLiveP99Sec / MaxLiveP999Sec cap the live-TCP slice's class
	// percentiles; MaxLiveFailRate caps its aggregate fail rate. Only
	// checked when the scenario ran its live slice.
	MaxLiveP99Sec   float64 `json:"max_live_p99_sec,omitempty"`
	MaxLiveP999Sec  float64 `json:"max_live_p999_sec,omitempty"`
	MaxLiveFailRate float64 `json:"max_live_fail_rate,omitempty"`
	// PerTenant gates individual tenants of a multi-tenant scenario
	// (checked against Result.Tenants).
	PerTenant []TenantSLO `json:"per_tenant,omitempty"`
	// MaxVictimFailRateDelta caps how much the victims' (non-abuser
	// tenants') fail rate may rise over the no-abuser baseline pass.
	// The DES is deterministic per seed, so this is an exact gate:
	// quota isolation working means the delta is (near) zero. Checked
	// only when a tenant is marked Abuser.
	MaxVictimFailRateDelta float64 `json:"max_victim_fail_rate_delta,omitempty"`
}

// TenantSLO is one tenant's gate inside a multi-tenant scenario: a
// fail-rate ceiling plus — for the abuser — a fail-rate floor proving
// enforcement actually engaged.
type TenantSLO struct {
	// Tenant selects which tenant the gate applies to.
	Tenant ids.TenantID `json:"tenant"`
	// MaxFailRate caps this tenant's failure.
	MaxFailRate float64 `json:"max_fail_rate,omitempty"`
	// MinFailRate asserts throttling bit: an abusive tenant whose fail
	// rate stays below this floor means the quota never refused
	// anything, i.e. the scenario did not actually test enforcement.
	MinFailRate float64 `json:"min_fail_rate,omitempty"`
}

// Violation is one SLO breach: which scenario, which class (empty for
// run-level metrics), which metric, and the measured value against its
// declared limit.
type Violation struct {
	// Scenario and Class locate the breach; Class is empty for
	// run-level metrics like fail rate and utilization.
	Scenario string `json:"scenario"`
	Class    string `json:"class,omitempty"`
	// Metric names the breached objective ("p99", "fail_rate", ...).
	Metric string `json:"metric"`
	// Value is the measurement; Limit the declared threshold.
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
}

// String renders the violation the way the gate prints it.
func (v Violation) String() string {
	where := v.Scenario
	if v.Class != "" {
		where += "/" + v.Class
	}
	return fmt.Sprintf("SLO: %s %s %.6g violates limit %.6g", where, v.Metric, v.Value, v.Limit)
}

// ceil appends a ceiling violation when limit > 0 and value exceeds it.
func ceil(vs []Violation, scen, class, metric string, value, limit float64) []Violation {
	if limit > 0 && value > limit {
		vs = append(vs, Violation{Scenario: scen, Class: class, Metric: metric, Value: value, Limit: limit})
	}
	return vs
}

// Check evaluates the SLO against one scenario result and returns every
// violation (nil when the scenario meets its objectives).
func (s SLO) Check(r *Result) []Violation {
	var vs []Violation
	for _, c := range r.Classes {
		vs = ceil(vs, r.Name, c.Class, "p50", c.P50Ms/1e3, s.MaxP50Sec)
		vs = ceil(vs, r.Name, c.Class, "p99", c.P99Ms/1e3, s.MaxP99Sec)
		vs = ceil(vs, r.Name, c.Class, "p999", c.P999Ms/1e3, s.MaxP999Sec)
	}
	vs = ceil(vs, r.Name, "", "fail_rate", r.FailRate, s.MaxFailRate)
	vs = ceil(vs, r.Name, "", "over_allocate", r.OverAllocate, s.MaxOverAllocate)
	if s.MinUtilization > 0 && r.Utilization < s.MinUtilization {
		vs = append(vs, Violation{Scenario: r.Name, Metric: "utilization", Value: r.Utilization, Limit: s.MinUtilization})
	}
	if s.MinWorkUtilization > 0 && r.WorkUtilization < s.MinWorkUtilization {
		vs = append(vs, Violation{Scenario: r.Name, Metric: "work_utilization", Value: r.WorkUtilization, Limit: s.MinWorkUtilization})
	}
	if r.Live != nil {
		for _, c := range r.Live.Classes {
			vs = ceil(vs, r.Name, "live/"+c.Class, "p99", c.P99Ms/1e3, s.MaxLiveP99Sec)
			vs = ceil(vs, r.Name, "live/"+c.Class, "p999", c.P999Ms/1e3, s.MaxLiveP999Sec)
		}
		vs = ceil(vs, r.Name, "live", "fail_rate", r.Live.FailRate, s.MaxLiveFailRate)
	}
	for _, ts := range s.PerTenant {
		label := ts.Tenant.String()
		for _, c := range r.Tenants {
			if c.Class != label {
				continue
			}
			vs = ceil(vs, r.Name, label, "fail_rate", c.FailRate(), ts.MaxFailRate)
			if ts.MinFailRate > 0 && c.FailRate() < ts.MinFailRate {
				vs = append(vs, Violation{Scenario: r.Name, Class: label,
					Metric: "fail_rate_floor", Value: c.FailRate(), Limit: ts.MinFailRate})
			}
		}
	}
	if r.Victims != nil {
		v := r.Victims
		vs = ceil(vs, r.Name, "victims", "fail_rate_delta",
			v.FailRate-v.BaselineFailRate, s.MaxVictimFailRateDelta)
	}
	return vs
}
