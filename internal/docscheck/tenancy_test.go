package docscheck

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
)

// TestTenancyDocCoversTenantSurface keeps docs/TENANCY.md — the operator
// tenancy guide — in lock-step with the multi-tenant surface: every
// dfsqos_tenant_* series the ledger can register, both tenancy flags, and
// the noisy-neighbor gate entry points must appear in the guide. Like the
// OPERATIONS.md checks, it fails with the exact missing name.
func TestTenancyDocCoversTenantSurface(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "TENANCY.md"))
	if err != nil {
		t.Fatalf("docs/TENANCY.md: %v", err)
	}
	doc := string(raw)

	reg := telemetry.NewRegistry()
	tenant.NewMetrics(reg)
	names := registeredNames(t, reg)
	if len(names) < 7 {
		t.Fatalf("tenant metric enumeration looks broken: only %d series", len(names))
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("tenant metric %s is missing from docs/TENANCY.md", name)
		}
	}

	// The guide must name the operator entry points: the client identity
	// flag, the RM quota flag, the fairness policy form, and the scenario
	// gate that proves isolation end to end.
	for _, needle := range []string{
		"`-tenant`",
		"`-tenant-quotas`",
		"noisy-neighbor",
		"make scenarios-tenant",
		"BENCH_10.json",
	} {
		if !strings.Contains(doc, needle) {
			t.Errorf("docs/TENANCY.md does not mention %s", needle)
		}
	}
}
