package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// tinyHighdimScale keeps the feature-space driver test fast while still
// running more than one rank and more than one warm step.
func tinyHighdimScale() Scale {
	sc := QuickScale()
	sc.HighdimN = 1500
	sc.HighdimK = 4
	sc.HighdimP = 2
	sc.HighdimSteps = 2
	return sc
}

func TestHighdimCellsGrid(t *testing.T) {
	tiny := HighdimCells(tinyHighdimScale())
	if len(tiny) != 3 {
		t.Fatalf("tiny grid has %d cells, want 3 (one per dimension)", len(tiny))
	}
	def := HighdimCells(DefaultScale())
	if len(def) != 6 {
		t.Fatalf("default grid has %d cells, want quick + default = 6", len(def))
	}
	// The committed default-scale snapshot must contain the quick cells
	// so CI's quick runs have cells to diff against.
	quick := HighdimCells(QuickScale())
	for i, q := range quick {
		if def[i] != q {
			t.Errorf("default grid cell %d = %+v, want quick cell %+v", i, def[i], q)
		}
	}
	wantDims := []int{8, 16, 64}
	for i, c := range def {
		if c.N <= 0 || c.K <= 0 || c.P <= 0 || c.Steps <= 0 || c.M != c.K {
			t.Errorf("malformed cell %+v", c)
		}
		if c.Dim != wantDims[i%3] {
			t.Errorf("cell %d dim = %d, want %d", i, c.Dim, wantDims[i%3])
		}
	}
}

// The highdim grid's deterministic fields must reproduce exactly run to
// run — that is what lets tools/benchdiff treat them as regression
// fences.
func TestHighdimDeterministicAndWellFormed(t *testing.T) {
	sc := tinyHighdimScale()
	a, err := Highdim(io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Highdim(io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != highdimReport.Schema || len(a.Cells) != len(HighdimCells(sc)) {
		t.Fatalf("report shape: schema %q, %d cells", a.Schema, len(a.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Collectives != cb.Collectives || ca.CollectiveBytes != cb.CollectiveBytes ||
			ca.Barriers != cb.Barriers || ca.DistCalcs != cb.DistCalcs ||
			ca.ChainCut != cb.ChainCut || ca.Imbalance != cb.Imbalance {
			t.Errorf("cell %d deterministic fields differ:\n%+v\n%+v", i, ca, cb)
		}
		if ca.Collectives <= 0 || ca.CollectiveBytes <= 0 || ca.DistCalcs <= 0 ||
			ca.WallSec <= 0 || ca.StepSecMean <= 0 {
			t.Errorf("cell %d has empty counters: %+v", i, ca)
		}
		if ca.Imbalance < 0 || ca.ChainCut < 0 {
			t.Errorf("cell %d has negative quality metrics: %+v", i, ca)
		}
	}

	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, a); err != nil {
		t.Fatal(err)
	}
	var back Report[HighdimCell]
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != a.Schema || len(back.Cells) != len(a.Cells) {
		t.Errorf("round-trip changed shape")
	}
	if back.Cells[0].DistCalcs != a.Cells[0].DistCalcs {
		t.Errorf("round-trip changed counters")
	}
}
