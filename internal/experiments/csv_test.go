package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"
)

func TestWriteRowsCSV(t *testing.T) {
	rows := []Row{
		{Graph: "g1", N: 100, M: 300, Tool: "Geographer", K: 8, P: 4,
			Seconds: 0.5, ModelSeconds: 0.001, Cut: 42, MaxComm: 7, TotComm: 80,
			HarmDiam: 3.5, Imbalance: 0.02, SpMVComm: 1e-5, SpMVWall: 2e-5},
	}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[1][0] != "g1" || recs[1][11] != "42" {
		t.Errorf("row: %v", recs[1])
	}
}

func TestWriteScalePointsCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []ScalePoint{{Tool: "Rcb", P: 8, K: 8, N: 1000, Seconds: 1, ModelSeconds: 0.01}}
	if err := WriteScalePointsCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Rcb,8,8,1000") {
		t.Errorf("csv: %s", buf.String())
	}
}

func TestWriteRatiosCSV(t *testing.T) {
	var buf bytes.Buffer
	rs := []ClassRatios{{Class: "2D", Tool: "Hsfc", EdgeCut: 1.5, Instances: 10}}
	if err := WriteRatiosCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2D,Hsfc,1.5") {
		t.Errorf("csv: %s", buf.String())
	}
}

func TestFitTrendsRecoversPowerLaw(t *testing.T) {
	// Synthetic rows with time = 2e-9·n^1.5 must fit slope 1.5.
	var rows []Row
	for _, n := range []int{1000, 2000, 4000, 8000, 16000} {
		rows = append(rows, Row{Tool: "X", N: n, ModelSeconds: 2e-9 * math.Pow(float64(n), 1.5)})
	}
	fits := FitTrends(rows)
	if len(fits) != 1 {
		t.Fatalf("%d fits", len(fits))
	}
	if math.Abs(fits[0].Slope-1.5) > 1e-9 {
		t.Errorf("slope = %g, want 1.5", fits[0].Slope)
	}
	if fits[0].Points != 5 {
		t.Errorf("points = %d", fits[0].Points)
	}
}

func TestFitTrendsSkipsDegenerate(t *testing.T) {
	fits := FitTrends([]Row{{Tool: "X", N: 0, ModelSeconds: 1}, {Tool: "X", N: 10, ModelSeconds: 0}})
	if len(fits) != 0 {
		t.Errorf("degenerate rows produced fits: %v", fits)
	}
}

// Byte-for-byte goldens (header line + one fully populated row) for the
// two writers the tests above do not pin.
func TestCSVWritersGolden(t *testing.T) {
	cases := []struct {
		name  string
		write func(*bytes.Buffer) error
		want  string
	}{
		{"stream", func(b *bytes.Buffer) error {
			return WriteStreamRowsCSV(b, []StreamRow{{Graph: "refined", Step: 2, Mode: "session", K: 8, P: 2,
				Seconds: 0.5, IngestSeconds: 0.125, KMeansSeconds: 0.375, Cut: 99, Imbalance: 0.03,
				MigratedWeight: 1e-7, MigratedFrac: 2.5e-9, DistCalcs: 123456789012, HamerlySkips: 42,
				BoundaryFrac: 0.167, Incremental: true}})
		}, "graph,step,mode,k,p,wall_s,ingest_s,kmeans_s,cut,imbalance,migrated_w,migrated_frac,dist_calcs,hamerly_skips,boundary_frac,incremental\nrefined,2,session,8,2,0.5,0.125,0.375,99,0.03,1e-07,2.5e-09,123456789012,42,0.167,true\n"},
		{"chaos", func(b *bytes.Buffer) error {
			return WriteChaosRowsCSV(b, []ChaosRow{{Graph: "climate", Step: 4, K: 16, P: 4, Retries: 2, FiredTotal: 3,
				Identical: true, PreImbalance: 0.41, MigratedWeight: 77.25, DistCalcs: 31337, Seconds: 0.02, RefSeconds: 0.015}})
		}, "graph,step,k,p,retries,fired_total,identical,pre_imbalance,migrated_w,dist_calcs,wall_s,ref_wall_s\nclimate,4,16,4,2,3,true,0.41,77.25,31337,0.02,0.015\n"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, buf.String(), tc.want)
		}
	}
}
