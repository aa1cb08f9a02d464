package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// checkFenceHeader pins a report header to its cell type: every key and
// strict name must be a JSON field of the marshalled cell (a renamed
// struct tag cannot silently un-fence a metric) and no name may be both.
func checkFenceHeader[C any](t *testing.T, rep Report[C]) {
	t.Helper()
	var zero C
	raw, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if rep.Schema == "" || len(rep.Key) == 0 || len(rep.Strict) == 0 {
		t.Fatalf("incomplete header: %+v", rep)
	}
	seen := map[string]string{}
	for list, names := range map[string][]string{"key": rep.Key, "strict": rep.Strict} {
		for _, name := range names {
			if _, ok := fields[name]; !ok {
				t.Errorf("%s: %s name %q is not a JSON field of the cell", rep.Schema, list, name)
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("%s: %q listed twice (%s, %s)", rep.Schema, name, prev, list)
			}
			seen[name] = list
		}
	}
}

func TestFenceHeadersNameCellFields(t *testing.T) {
	checkFenceHeader(t, soakReport)
	checkFenceHeader(t, highdimReport)
	checkFenceHeader(t, chaosReport)
	checkFenceHeader(t, serveReport)
	checkFenceHeader(t, durableReport)
}

// The headline invariants are functions of a finished cell; doctored
// cells reach every message runexp can exit on.
func TestCellInvariantChecks(t *testing.T) {
	chaos := ChaosCell{Graph: "climate", FaultsScheduled: 4, FaultsFired: 4, Recoveries: 4, Identical: true}
	serve := ServeCell{Tenants: 8, IdenticalChains: 8, Evictions: 8, Restores: 8}
	durable := DurableCell{Tenants: 6, InjectedTorn: 1, InjectedFlip: 1, InjectedDelete: 1,
		Quarantined: 2, LostTyped: 3, SurvivorChains: 3, Recovered: 6, RecoveredChains: 6}

	chaosWith := func(doctor func(*ChaosCell)) error { c := chaos; doctor(&c); return c.check() }
	serveWith := func(doctor func(*ServeCell)) error { c := serve; doctor(&c); return c.check() }
	durableWith := func(doctor func(*DurableCell)) error { c := durable; doctor(&c); return c.check() }

	cases := []struct {
		name string
		err  error
		want string // substring of the message; "" = healthy
	}{
		{"chaos healthy", chaos.check(), ""},
		{"chaos diverged", chaosWith(func(c *ChaosCell) { c.Identical = false }),
			"climate: chaos chain diverged from the fault-free chain"},
		{"chaos unrecovered", chaosWith(func(c *ChaosCell) { c.Recoveries = 3 }),
			"climate: 4 faults fired but 3 recoveries"},

		{"serve healthy", serve.check(), ""},
		{"serve diverged", serveWith(func(c *ServeCell) { c.IdenticalChains = 7 }),
			"1 of 8 tenant chains diverged"},
		{"serve unrestored", serveWith(func(c *ServeCell) { c.Restores = 7 }),
			"evictions=8 restores=7"},
		{"serve never evicted", serveWith(func(c *ServeCell) { c.Evictions, c.Restores = 0, 0 }),
			"evictions=0 restores=0"},

		{"durable healthy", durable.check(), ""},
		{"durable untyped loss", durableWith(func(c *DurableCell) { c.LostTyped = 2 }),
			"3 injuries but only 2 degraded to the typed ErrTenantLost"},
		{"durable unquarantined", durableWith(func(c *DurableCell) { c.Quarantined = 1 }),
			"quarantined 1 spills, want 2"},
		{"durable survivor missing", durableWith(func(c *DurableCell) { c.SurvivorChains = 2 }),
			"1 of 3 uninjured chains diverged"},
		{"durable tenant not recovered", durableWith(func(c *DurableCell) { c.Recovered = 5 }),
			"cold recovery resumed 5/6 tenants, 6/6 chains"},
		{"durable recovered chain diverged", durableWith(func(c *DurableCell) { c.RecoveredChains = 5 }),
			"cold recovery resumed 6/6 tenants, 5/6 chains"},
	}
	for _, tc := range cases {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, tc.err)
		case tc.want != "" && tc.err == nil:
			t.Errorf("%s: no error, want %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(tc.err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, tc.err, tc.want)
		}
	}
}
