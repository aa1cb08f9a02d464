package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestChaosQuick runs the fault-injection experiment at quick scale and
// checks the acceptance shape: at least 3 scheduled faults fire, every
// fired fault is recovered, and every step of the chaos chain is
// bit-identical to the fault-free chain.
func TestChaosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	rows, rep, err := Chaos(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != chaosReport.Schema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if want := len(repartWorkloads(QuickScale())); len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.FaultsFired < 3 {
			t.Errorf("%s: only %d faults fired, want >= 3", c.Graph, c.FaultsFired)
		}
		if c.Recoveries != int(c.FaultsFired) {
			t.Errorf("%s: %d faults fired but %d recoveries", c.Graph, c.FaultsFired, c.Recoveries)
		}
		if !c.Identical {
			t.Errorf("%s: chaos chain diverged from the fault-free chain", c.Graph)
		}
		if c.Steps != chaosSteps || c.P != chaosP {
			t.Errorf("%s: cell config steps=%d p=%d", c.Graph, c.Steps, c.P)
		}
		if c.Cut <= 0 {
			t.Errorf("%s: cut %d after final step", c.Graph, c.Cut)
		}
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s step %d: partition not identical", r.Graph, r.Step)
		}
	}
	if !strings.Contains(buf.String(), "bit-identical to fault-free chain: true") {
		t.Error("missing summary line")
	}

	var csv bytes.Buffer
	if err := WriteChaosRowsCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(rows)+1 {
		t.Errorf("%d CSV lines for %d rows", lines, len(rows))
	}
}
