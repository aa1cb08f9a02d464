package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestServeQuick runs the multi-tenant serving experiment at quick
// scale and checks its acceptance invariants: every tenant's chain
// bit-identical to its solo reference (assignments and distance
// evaluations), and one forced eviction + restore per tenant.
func TestServeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	rows, rep, err := Serve(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != serveReport.Schema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Tenants != serveTenants || c.Steps != serveSteps || c.Pool != servePool || c.Budget != serveBudget {
		t.Fatalf("cell config: %+v", c)
	}
	if c.IdenticalChains != c.Tenants {
		t.Errorf("%d of %d chains diverged from solo", c.Tenants-c.IdenticalChains, c.Tenants)
	}
	if c.Evictions != serveTenants || c.Restores != serveTenants {
		t.Errorf("evictions=%d restores=%d, want %d each", c.Evictions, c.Restores, serveTenants)
	}
	if len(rows) != serveTenants {
		t.Fatalf("%d rows, want %d", len(rows), serveTenants)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: chain not bit-identical to solo", r.Tenant)
		}
		if r.DistCalcs != r.SoloDistCalcs {
			t.Errorf("%s: dist_calcs %d vs solo %d — eviction knocked it off the incremental path",
				r.Tenant, r.DistCalcs, r.SoloDistCalcs)
		}
		// create + cold partition + per step (weights, repartition) + one evict
		if want := 2 + 2*serveSteps + 1; r.Verbs != want {
			t.Errorf("%s: %d verbs, want %d", r.Tenant, r.Verbs, want)
		}
	}
	if c.Verbs != serveTenants*(3+2*serveSteps) {
		t.Errorf("cell verbs %d", c.Verbs)
	}
	if c.VerbsPerSec <= 0 || c.P50Ms < 0 || c.P99Ms < c.P50Ms {
		t.Errorf("degenerate throughput/latency: %+v", c)
	}
}

// TestQuantileNearestRank pins the latency quantiles to nearest rank,
// sorted[⌈q·n⌉−1], on the serve fence's 72 verbs: 1..72 ms.
func TestQuantileNearestRank(t *testing.T) {
	lats := make([]time.Duration, 72)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 36}, {0.95, 69}, {0.99, 72}, {1, 72}, {0, 1}} {
		if got := quantile(lats, c.q); got != c.want {
			t.Errorf("q=%g: %g ms, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty: %g, want 0", got)
	}
}
