package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// tinySoakScale keeps the soak driver test fast while exercising more
// than one rank group of the tree barrier.
func tinySoakScale() Scale {
	sc := QuickScale()
	sc.SoakN = 2000
	sc.SoakK = 4
	sc.SoakMaxK = 8
	sc.SoakMaxP = 8
	sc.SoakSteps = 2
	return sc
}

func TestSoakCellsGrid(t *testing.T) {
	tiny := SoakCells(tinySoakScale())
	if len(tiny) != 3 {
		t.Fatalf("tiny grid has %d cells, want 3", len(tiny))
	}
	def := SoakCells(DefaultScale())
	if len(def) != 6 {
		t.Fatalf("default grid has %d cells, want quick + default = 6", len(def))
	}
	// The committed default-scale snapshot must contain the quick cells
	// so CI's quick runs have cells to diff against.
	quick := SoakCells(QuickScale())
	for i, q := range quick {
		if def[i] != q {
			t.Errorf("default grid cell %d = %+v, want quick cell %+v", i, def[i], q)
		}
	}
	for _, c := range def {
		if c.N <= 0 || c.K <= 0 || c.P <= 0 || c.Steps <= 0 || c.Dim != 3 {
			t.Errorf("malformed cell %+v", c)
		}
	}
}

// The soak's deterministic fields must reproduce exactly run to run —
// that is what lets tools/benchdiff treat them as regression fences.
func TestSoakDeterministicAndWellFormed(t *testing.T) {
	sc := tinySoakScale()
	a, err := Soak(io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != soakReport.Schema || len(a.Cells) != len(SoakCells(sc)) {
		t.Fatalf("report shape: schema %q, %d cells", a.Schema, len(a.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Collectives != cb.Collectives || ca.CollectiveBytes != cb.CollectiveBytes ||
			ca.Barriers != cb.Barriers || ca.DistCalcs != cb.DistCalcs ||
			ca.ModeledCommSec != cb.ModeledCommSec || ca.Imbalance != cb.Imbalance {
			t.Errorf("cell %d deterministic fields differ:\n%+v\n%+v", i, ca, cb)
		}
		// Barriers may legitimately be zero: the warm path's collectives
		// are single-crossing rendezvous folds, not bare barriers.
		if ca.Collectives <= 0 || ca.CollectiveBytes <= 0 ||
			ca.WallSec <= 0 || ca.StepSecMean <= 0 {
			t.Errorf("cell %d has empty counters: %+v", i, ca)
		}
	}

	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, a); err != nil {
		t.Fatal(err)
	}
	var back Report[SoakCell]
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != a.Schema || len(back.Cells) != len(a.Cells) {
		t.Errorf("round-trip changed shape")
	}
	if back.Cells[0].Collectives != a.Cells[0].Collectives {
		t.Errorf("round-trip changed counters")
	}
}
