// Command runexp regenerates the paper's tables and figures (§5) and
// runs the fence experiments behind the committed BENCH_*.json reports.
//
// Examples:
//
//	runexp -exp table2                  # Table 2 at default scale
//	runexp -exp fig3a -scale quick      # fast smoke run
//	runexp -exp fig1 -outdir ./figs     # SVGs of the five partitioners
//	runexp -exp all
//	runexp -exp soak -scale quick -bench /tmp/soak.json
//
// Default scale is the paper's setup shrunk ~1000× (see DESIGN.md);
// results are printed in the same row/series structure as the paper so
// the *shape* (who wins, by what factor) can be compared directly.
// docs/cli.md documents every experiment, its flags and its outputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"geographer/internal/experiments"
)

// args is what one experiment sees of the command line.
type args struct {
	name   string // the experiment's table name; names its CSV file
	sc     experiments.Scale
	outdir string
	csvDir string
	bench  string
}

// experiment is one row of the table below. A fence is a runtime stress
// with a committed BENCH_<name>.json report (docs/cli.md), not a paper
// artifact: it is opt-in — "-exp all" regenerates the paper's tables and
// figures only — and it is what -bench applies to.
type experiment struct {
	name  string
	fence bool
	run   func(a args) error
}

var table = []experiment{
	{"fig1", false, func(a args) error {
		paths, err := experiments.Fig1(a.outdir, a.sc)
		for _, p := range paths {
			fmt.Println("wrote", p)
		}
		return err
	}},
	{"table2", false, func(a args) error {
		rows, err := experiments.Table2(os.Stdout, a.sc)
		return dumpCSV(a, rows, err, experiments.WriteRowsCSV)
	}},
	{"table1", false, func(a args) error {
		rows, err := experiments.Table1(os.Stdout, a.sc)
		return dumpCSV(a, rows, err, experiments.WriteRowsCSV)
	}},
	{"fig2", false, func(a args) error {
		ratios, err := experiments.Fig2(os.Stdout, a.sc)
		return dumpCSV(a, ratios, err, experiments.WriteRatiosCSV)
	}},
	{"fig3a", false, func(a args) error {
		pts, err := experiments.Fig3a(os.Stdout, a.sc)
		return dumpCSV(a, pts, err, experiments.WriteScalePointsCSV)
	}},
	{"fig3b", false, func(a args) error {
		pts, err := experiments.Fig3b(os.Stdout, a.sc)
		return dumpCSV(a, pts, err, experiments.WriteScalePointsCSV)
	}},
	{"fig4", false, func(a args) error {
		rows, err := experiments.Fig4(os.Stdout, a.sc)
		return dumpCSV(a, rows, err, experiments.WriteRowsCSV)
	}},
	{"components", false, func(a args) error {
		_, err := experiments.Components(os.Stdout, a.sc)
		return err
	}},
	{"stream", false, func(a args) error {
		rows, err := experiments.Stream(os.Stdout, a.sc)
		return dumpCSV(a, rows, err, experiments.WriteStreamRowsCSV)
	}},
	{"ablation", false, func(a args) error {
		_, err := experiments.Ablation(os.Stdout, a.sc)
		return err
	}},
	// Paper-scale streaming sessions: millions of points, thousands of
	// simulated ranks; takes much longer than the rest at default scale.
	{"soak", true, func(a args) error {
		rep, err := experiments.Soak(os.Stdout, a.sc)
		return writeBench(a, rep, err)
	}},
	// Fault tolerance: injected rank failures, session heal, retry
	// convergence.
	{"chaos", true, func(a args) error {
		rows, rep, err := experiments.Chaos(os.Stdout, a.sc)
		if len(rep.Cells) > 0 { // the run finished; err, if any, is its invariant check
			if werr := dumpCSV(a, rows, nil, experiments.WriteChaosRowsCSV); werr != nil {
				return werr
			}
		}
		return writeBench(a, rep, err)
	}},
	// The multi-tenant registry: shared worker pool, forced
	// eviction/restore, concurrent chains.
	{"serve", true, func(a args) error {
		_, rep, err := experiments.Serve(os.Stdout, a.sc)
		return writeBench(a, rep, err)
	}},
	// The disk spill store under injected corruption (torn writes,
	// bit-flips, deleted files) and cold crash recovery.
	{"durable", true, func(a args) error {
		rep, err := experiments.Durable(os.Stdout, a.sc)
		return writeBench(a, rep, err)
	}},
	// Feature-space clustering at d ∈ {8, 16, 64} through the
	// generic-dimension kernels — beyond the paper's 2D/3D meshes.
	{"highdim", true, func(a args) error {
		rep, err := experiments.Highdim(os.Stdout, a.sc)
		return writeBench(a, rep, err)
	}},
}

// names joins the table's experiment names, optionally fences only.
func names(fencesOnly bool) string {
	var out []string
	for _, e := range table {
		if e.fence || !fencesOnly {
			out = append(out, e.name)
		}
	}
	return strings.Join(out, "|")
}

func main() {
	var (
		exp     = flag.String("exp", "all", names(false)+"|all (all = everything but the fences "+names(true)+")")
		scale   = flag.String("scale", "default", "default|quick")
		outdir  = flag.String("outdir", ".", "directory for fig1 SVGs")
		repeats = flag.Int("repeats", 0, "override measurement repetitions (paper: 5)")
		csvDir  = flag.String("csv", "", "also dump raw results as CSV files into this directory")
		bench   = flag.String("bench", "", "write the fence report ("+names(true)+") as JSON to this path (BENCH_<exp>.json convention)")
	)
	flag.Parse()

	a := args{outdir: *outdir, csvDir: *csvDir, bench: *bench}
	switch *scale {
	case "default":
		a.sc = experiments.DefaultScale()
	case "quick":
		a.sc = experiments.QuickScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if *repeats > 0 {
		a.sc.Repeats = *repeats
	}

	var selected []experiment
	for _, e := range table {
		if e.name == *exp || (*exp == "all" && !e.fence) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if *bench != "" && !selected[0].fence {
		fatal(fmt.Errorf("-bench: %q writes no report; the fence experiments are %s", *exp, names(true)))
	}
	for _, e := range selected {
		a.name = e.name
		t0 := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.run(a); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Printf("(%s finished in %v)\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
}

// dumpCSV passes an experiment's error through and, under -csv, writes
// its rows to <csvDir>/<name>.csv.
func dumpCSV[T any](a args, rows []T, err error, write func(io.Writer, []T) error) error {
	if err != nil || a.csvDir == "" {
		return err
	}
	return writeFile(filepath.Join(a.csvDir, a.name+".csv"), func(w io.Writer) error { return write(w, rows) })
}

// writeBench writes a fence's report under -bench and then passes the
// fence's error through: a finished run whose headline invariant broke
// (an error next to a report with cells, see experiments.Report) leaves
// its report behind before runexp exits non-zero; a run that failed has
// no cells and writes nothing.
func writeBench[C any](a args, rep experiments.Report[C], err error) error {
	if a.bench == "" || len(rep.Cells) == 0 {
		return err
	}
	werr := writeFile(a.bench, func(w io.Writer) error { return experiments.WriteReportJSON(w, rep) })
	if werr != nil {
		return werr
	}
	fmt.Println("wrote", a.bench)
	return err
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runexp:", err)
	os.Exit(1)
}
