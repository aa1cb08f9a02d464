package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"geographer/internal/baselines"
)

func TestRegistryCoversAllClasses(t *testing.T) {
	reg := Registry()
	if len(reg) < 15 {
		t.Fatalf("registry has only %d instances", len(reg))
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, in := range reg {
		counts[in.Class]++
		if names[in.Name] {
			t.Errorf("duplicate instance name %s", in.Name)
		}
		names[in.Name] = true
	}
	if counts[Class2D] < 8 || counts[ClassClimate] < 3 || counts[Class3D] < 4 {
		t.Errorf("class counts: %v", counts)
	}
	if len(ByClass(Class2D)) != counts[Class2D] {
		t.Error("ByClass filter wrong")
	}
}

func TestMaterializeCaching(t *testing.T) {
	in := Registry()[0]
	a, err := in.Materialize(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.Materialize(1000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss for identical key")
	}
	c, err := in.Materialize(1200)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different sizes must not share a mesh")
	}
}

func TestToolsLineup(t *testing.T) {
	tools := Tools()
	if len(tools) != 5 {
		t.Fatalf("%d tools", len(tools))
	}
	if tools[0].Name() != "Geographer" {
		t.Errorf("Tools() must lead with Geographer (fig2 baseline), got %s", tools[0].Name())
	}
	tt := TableTools()
	if len(tt) != 4 {
		t.Fatalf("%d table tools", len(tt))
	}
	for _, tool := range tt {
		if tool.Name() == "Rib" {
			t.Error("tables must omit RIB like the paper")
		}
	}
}

func TestRunOneProducesCompleteRow(t *testing.T) {
	sc := QuickScale()
	in := Registry()[0]
	m, err := in.Materialize(sc.Table2N)
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunOne(m, TableTools()[0], 8, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Cut <= 0 || row.TotComm <= 0 || row.MaxComm <= 0 {
		t.Errorf("degenerate metrics: %+v", row)
	}
	if row.Seconds <= 0 || row.ModelSeconds <= 0 {
		t.Errorf("no timing: %+v", row)
	}
	if row.SpMVComm <= 0 {
		t.Errorf("no SpMV time: %+v", row)
	}
	if row.Imbalance > 0.031 {
		t.Errorf("Geographer imbalance %.4f", row.Imbalance)
	}
	if row.HarmDiam <= 0 {
		t.Errorf("no diameter: %+v", row)
	}
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	rows, err := Table2(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(Registry()) * len(TableTools())
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	out := buf.String()
	for _, tool := range []string{"Geographer", "Hsfc", "MultiJagged", "Rcb"} {
		if !strings.Contains(out, tool) {
			t.Errorf("output missing tool %s", tool)
		}
	}
	// Geographer rows must respect ε, and the paper's quality claim must
	// hold on every instance: Geographer's total communication volume is
	// at most every baseline's.
	geoComm := map[string]int64{}
	for _, r := range rows {
		if r.Tool == "Geographer" {
			geoComm[r.Graph] = r.TotComm
			if r.Imbalance > 0.031 {
				t.Errorf("%s: Geographer imbalance %.4f", r.Graph, r.Imbalance)
			}
		}
	}
	for _, r := range rows {
		if geo, ok := geoComm[r.Graph]; !ok {
			t.Errorf("%s: no Geographer row", r.Graph)
		} else if r.Tool != "Geographer" && geo > r.TotComm {
			t.Errorf("%s: Geographer ΣcommVol %d above %s's %d", r.Graph, geo, r.Tool, r.TotComm)
		}
	}
}

func TestFig2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	ratios, err := Fig2(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// 3 classes × 4 non-Geographer tools.
	if len(ratios) != 12 {
		t.Fatalf("%d ratio rows", len(ratios))
	}
	// Every baseline's total communication volume is at least
	// Geographer's, class by class (geometric mean of the ratios).
	for _, cr := range ratios {
		if cr.TotComm < 1 {
			t.Errorf("%s/%s: totCommVol ratio %.4f below 1", cr.Class, cr.Tool, cr.TotComm)
		}
	}
}

func TestFig3aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	pts, err := Fig3a(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no scale points")
	}
	for _, pt := range pts {
		if pt.ModelSeconds <= 0 {
			t.Errorf("%s p=%d: no modeled time", pt.Tool, pt.P)
		}
	}
}

func TestFig3bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	pts, err := Fig3b(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < len(Tools())*2 {
		t.Fatalf("only %d scale points", len(pts))
	}
}

func TestFig4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	rows, err := Fig4(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Registry())*len(Tools()) {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	dir := t.TempDir()
	paths, err := Fig1(dir, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("%d SVGs, want 5", len(paths))
	}
}

func TestComponentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	shares, err := Components(&buf, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range shares {
		total := cs.SFCShare + cs.SortShare + cs.KMeansShare
		if total < 0.99 || total > 1.01 {
			t.Errorf("p=%d: shares sum to %g", cs.P, total)
		}
	}
}

// TestRunOnePhaseFields checks Geographer rows carry the phase
// breakdown while baseline rows stay zero.
func TestRunOnePhaseFields(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	in := Registry()[0]
	m, err := in.Materialize(1500)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := RunOne(m, Tools()[0], 4, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if geo.SFCSeconds+geo.SortSeconds+geo.KMeansSeconds <= 0 {
		t.Error("Geographer row has no phase times")
	}
	rcb, err := RunOne(m, baselines.RCB(), 4, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rcb.SFCSeconds != 0 || rcb.SortSeconds != 0 || rcb.KMeansSeconds != 0 {
		t.Error("baseline row reports phase times")
	}
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	rows, err := Ablation(io.Discard, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	_ = buf
	if len(rows) != 7 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	var full, noBounds *AblationRow
	for i := range rows {
		switch rows[i].Config {
		case "full":
			full = &rows[i]
		case "no-bounds":
			noBounds = &rows[i]
		}
	}
	if full == nil || noBounds == nil {
		t.Fatal("missing configs")
	}
	if full.DistCalcs >= noBounds.DistCalcs {
		t.Errorf("Hamerly bounds saved nothing: %d vs %d", full.DistCalcs, noBounds.DistCalcs)
	}
}

// streamRun is one Stream run: its rows and its printed report.
type streamRun struct {
	rows   []StreamRow
	report string
}

// quickStream runs Stream at quick scale once; TestRepartQuick and
// TestStreamQuick both read it, so the suite runs the chains once.
var quickStream = sync.OnceValues(func() (streamRun, error) {
	var buf bytes.Buffer
	rows, err := Stream(&buf, QuickScale())
	return streamRun{rows, buf.String()}, err
})

// TestRepartQuick checks the warm-start acceptance on Stream's session
// and scratch rows, and that they reproduce repartPinned.
func TestRepartQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	run, err := quickStream()
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance: per workload, warm-start migration strictly below
	// from-scratch at comparable imbalance.
	mig := map[string]map[string]float64{}
	var dump strings.Builder
	dump.WriteString("graph,step,mode,k,p,cut,imbalance,migrated_w,migrated_frac\n")
	for _, r := range run.rows {
		if r.Mode != "session" && r.Mode != "scratch" {
			continue
		}
		if mig[r.Graph] == nil {
			mig[r.Graph] = map[string]float64{}
		}
		mig[r.Graph][r.Mode] += r.MigratedWeight
		if r.Imbalance > 0.25 {
			t.Errorf("%s step %d %s: imbalance %.3f", r.Graph, r.Step, r.Mode, r.Imbalance)
		}
		if r.Cut <= 0 {
			t.Errorf("%s step %d %s: cut %d", r.Graph, r.Step, r.Mode, r.Cut)
		}
		fmt.Fprintf(&dump, "%s,%d,%s,%d,%d,%d,%s,%s,%s\n", r.Graph, r.Step, r.Mode, r.K, r.P,
			r.Cut, fmtF(r.Imbalance), fmtF(r.MigratedWeight), fmtF(r.MigratedFrac))
	}
	if len(mig) != len(repartWorkloads(QuickScale())) {
		t.Fatalf("%d workloads, want %d", len(mig), len(repartWorkloads(QuickScale())))
	}
	for graph, byMode := range mig {
		if byMode["session"] >= byMode["scratch"] {
			t.Errorf("%s: session migration %.1f not below scratch %.1f",
				graph, byMode["session"], byMode["scratch"])
		}
	}
	if !strings.Contains(run.report, "migrated weight session") {
		t.Error("missing summary clause")
	}
	checkPinned(t, dump.String(), strings.ReplaceAll(repartPinned, ",warm,", ",session,"))
}

// checkPinned compares a CSV dump, minus its *_s wall-time columns,
// line by line against pinned.
func checkPinned(t *testing.T, dump, pinned string) {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(dump)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(pinned), "\n")
	if len(recs) != len(want) {
		t.Fatalf("%d CSV lines, %d pinned", len(recs), len(want))
	}
	for i, rec := range recs {
		var kept []string
		for j, v := range rec {
			if !strings.HasSuffix(recs[0][j], "_s") {
				kept = append(kept, v)
			}
		}
		if got := strings.Join(kept, ","); got != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestStreamQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	run, err := quickStream()
	if err != nil {
		t.Fatal(err) // includes the driver's own bit-identicality check
	}
	rows := run.rows
	// Per workload: one cold row plus (session, oneshot, scratch) per
	// warm step.
	if want := len(repartWorkloads(QuickScale())) * (1 + streamSteps*3); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	ingest := map[string]map[string]int{}
	for _, r := range rows {
		if ingest[r.Graph] == nil {
			ingest[r.Graph] = map[string]int{}
		}
		if r.IngestSeconds > 0 {
			ingest[r.Graph][r.Mode]++
		}
		if r.Mode == "session" && r.IngestSeconds != 0 {
			t.Errorf("%s step %d: session warm step reports ingest %g, want 0", r.Graph, r.Step, r.IngestSeconds)
		}
		if r.Cut <= 0 {
			t.Errorf("%s step %d %s: cut %d", r.Graph, r.Step, r.Mode, r.Cut)
		}
	}
	// The acceptance shape: in the session chain ingest appears once
	// (the cold step), not per step; the one-shot chain re-pays it.
	for graph, byMode := range ingest {
		if byMode["cold"] != 1 {
			t.Errorf("%s: ingest appears %d times in the session phase breakdown, want once", graph, byMode["cold"])
		}
		if byMode["session"] != 0 {
			t.Errorf("%s: session warm steps paid ingest %d times, want 0", graph, byMode["session"])
		}
	}
	if !strings.Contains(run.report, "partitions bit-identical") {
		t.Error("missing summary line")
	}

	var csv bytes.Buffer
	if err := WriteStreamRowsCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(rows)+1 {
		t.Errorf("%d CSV lines for %d rows", lines, len(rows))
	}
	checkPinned(t, csv.String(), streamPinned)
}

func TestNearestPow2(t *testing.T) {
	cases := map[int]int{0: 2, 1: 2, 2: 2, 3: 2, 5: 4, 6: 4 /* tie rounds down */, 7: 8, 8: 8, 11: 8, 13: 16, 100: 128}
	for in, want := range cases {
		if got := nearestPow2(in); got != want {
			t.Errorf("nearestPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// repartPinned and streamPinned are the non-time columns of the quick-scale
// stream CSV (every column but the *_s wall times) and of the retired
// repart experiment's CSV, whose warm and scratch rows are stream's
// session and scratch rows. Both were captured before the experiments
// shared one session-chain driver, except streamPinned's scratch lines,
// added with the scratch arm. The chains are deterministic, so any
// drift is a behaviour change, not noise.
const repartPinned = `graph,step,mode,k,p,cut,imbalance,migrated_w,migrated_frac
climate,1,warm,16,4,570,0.029282007690239586,16151.496925329875,0.08036938070635181
climate,1,scratch,16,4,560,0.025585560426934828,37282.02920680118,0.18551429707593714
climate,2,warm,16,4,563,0.025284241584081935,6050.047513306426,0.029192548339030757
climate,2,scratch,16,4,577,0.02742231283817209,39065.85255002008,0.18849964177366418
climate,3,warm,16,4,554,0.026092465438834367,11827.488928297935,0.06936703970787192
climate,3,scratch,16,4,560,0.028429006117869582,12201.589738292876,0.07156110354500464
climate,4,warm,16,4,566,0.02501519551296072,5050.8184162135485,0.04260532567617034
climate,4,scratch,16,4,553,0.02979020083629913,20928.95283071631,0.17654264674245518
climate,5,warm,16,4,566,0.025786449349054275,3796.311040887891,0.04185774599548156
climate,5,scratch,16,4,573,0.024541519890118657,19048.518279190044,0.21002705814488354
refined,1,warm,16,4,591,0.02858690589182178,43.87123800031443,0.013203774614924061
refined,1,scratch,16,4,596,0.026557932500686166,49.06339990342309,0.01476644160718789
refined,2,warm,16,4,581,0.026367547624100762,16.588302034682126,0.00479945314610273
refined,2,scratch,16,4,595,0.019949611546055124,59.5003368415632,0.01721508797291952
refined,3,warm,16,4,605,0.025964595515161726,60.64693601398887,0.021158981039444313
refined,3,scratch,16,4,595,0.026708854731549936,24.13086544556061,0.008418966529656619
refined,4,warm,16,4,594,0.028664462112155453,36.77640046290912,0.018397033888817787
refined,4,scratch,16,4,600,0.029779862674323976,34.31801593771901,0.01716725112453444
refined,5,warm,16,4,602,0.026739175904964885,23.557239272794543,0.01559105501273394
refined,5,scratch,16,4,584,0.026758212965070527,33.22028305677134,0.021986415924164157
`

const streamPinned = `graph,step,mode,k,p,cut,imbalance,migrated_w,migrated_frac,dist_calcs,hamerly_skips,boundary_frac,incremental
climate,0,cold,16,4,573,0.028665632400819208,0,0,146700,115248,1,false
climate,1,session,16,4,570,0.029282007690239586,16151.496925329875,0.08036938070635181,83829,107825,1,false
climate,1,oneshot,16,4,570,0.029282007690239586,16151.496925329875,0.08036938070635181,83829,107825,1,false
climate,1,scratch,16,4,560,0.025585560426934828,37282.02920680118,0.18551429707593714,256101,199505,1,false
climate,2,session,16,4,563,0.025284241584081935,6050.047513306426,0.029192548339030757,20793,44761,0.124,true
climate,2,oneshot,16,4,563,0.025284241584081935,6050.047513306426,0.029192548339030757,56496,43395,1,false
climate,2,scratch,16,4,577,0.02742231283817209,39065.85255002008,0.18849964177366418,176818,124410,1,false
climate,3,session,16,4,554,0.026092465438834367,11827.488928297935,0.06936703970787192,48590,103380,0.1328,true
climate,3,oneshot,16,4,554,0.026092465438834367,11827.488928297935,0.06936703970787192,83219,102181,1,false
climate,3,scratch,16,4,560,0.028429006117869582,12201.589738292876,0.07156110354500464,212977,159866,1,false
climate,4,session,16,4,566,0.02501519551296072,5050.8184162135485,0.04260532567617034,22907,53887,0.1228,true
climate,4,oneshot,16,4,566,0.02501519551296072,5050.8184162135485,0.04260532567617034,58470,52604,1,false
climate,4,scratch,16,4,553,0.02979020083629913,20928.95283071631,0.17654264674245518,240077,176502,1,false
climate,5,session,16,4,566,0.025786449349054275,3796.311040887891,0.04185774599548156,23055,56646,0.1164,true
climate,5,oneshot,16,4,566,0.025786449349054275,3796.311040887891,0.04185774599548156,59207,55179,1,false
climate,5,scratch,16,4,573,0.024541519890118657,19048.518279190044,0.21002705814488354,185541,140831,1,false
refined,0,cold,16,4,596,0.025693361349309995,0,0,279238,203354,1,false
refined,1,session,16,4,591,0.02858690589182178,43.87123800031443,0.013203774614924061,50467,44991,1,false
refined,1,oneshot,16,4,591,0.02858690589182178,43.87123800031443,0.013203774614924061,50467,44991,1,false
refined,1,scratch,16,4,596,0.026557932500686166,49.06339990342309,0.01476644160718789,224665,167829,1,false
refined,2,session,16,4,581,0.026367547624100762,16.588302034682126,0.00479945314610273,10051,42564,0.0972,true
refined,2,oneshot,16,4,581,0.026367547624100762,16.588302034682126,0.00479945314610273,47855,40612,1,false
refined,2,scratch,16,4,595,0.019949611546055124,59.5003368415632,0.01721508797291952,374120,272364,1,false
refined,3,session,16,4,605,0.025964595515161726,60.64693601398887,0.021158981039444313,15375,53923,0.0768,true
refined,3,oneshot,16,4,605,0.025964595515161726,60.64693601398887,0.021158981039444313,52757,52077,1,false
refined,3,scratch,16,4,595,0.026708854731549936,24.13086544556061,0.008418966529656619,310923,237655,1,false
refined,4,session,16,4,594,0.028664462112155453,36.77640046290912,0.018397033888817787,16959,58488,0.1068,true
refined,4,oneshot,16,4,594,0.028664462112155453,36.77640046290912,0.018397033888817787,53526,56861,1,false
refined,4,scratch,16,4,600,0.029779862674323976,34.31801593771901,0.01716725112453444,355035,256296,1,false
refined,5,session,16,4,602,0.026739175904964885,23.557239272794543,0.01559105501273394,13401,46800,0.0968,true
refined,5,oneshot,16,4,602,0.026739175904964885,23.557239272794543,0.01559105501273394,50400,45049,1,false
refined,5,scratch,16,4,584,0.026758212965070527,33.22028305677134,0.021986415924164157,294797,214371,1,false
`
