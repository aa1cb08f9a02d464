// Command benchdiff compares two fence reports cell by cell and fails on
// drift in what the baseline declares deterministic.
//
//	benchdiff -old BENCH_soak.json -new /tmp/soak.json [-tol 0.10]
//
// It knows no schema. A fence report says how to read itself (the
// producer side is experiments.Report, the convention docs/cli.md):
// "key" lists the cell fields that identify a cell, "strict" the fields
// that are exact functions of that identity; every other numeric field
// is machine-dependent. Cells are matched by their key fields; a strict
// field of the baseline that drifts beyond the tolerance, or is missing
// from the fresh cell, exits non-zero; any other field only warns.
// Booleans compare as 0/1; strings may appear in key fields only. Cells
// present in only one report are skipped with a note — committed
// snapshots are generated at a larger scale than the CI run diffing
// against them — but at least one cell must match.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

// report is the envelope every fence report shares; cells stay untyped.
type report struct {
	Schema string           `json:"schema"`
	Key    []string         `json:"key"`
	Strict []string         `json:"strict"`
	Cells  []map[string]any `json:"cells"`
}

// load reads a fence report. Numbers are kept as json.Number so key
// fields print as written (n=2000000, not 2e+06).
func load(path string) (report, error) {
	var rep report
	f, err := os.Open(path)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.UseNumber()
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema == "" || len(rep.Key) == 0 {
		return rep, fmt.Errorf("%s: not a fence report (no schema or no key list)", path)
	}
	return rep, nil
}

// cellKey renders a cell's identity from the report's key fields.
func cellKey(key []string, cell map[string]any) string {
	parts := make([]string, len(key))
	for i, name := range key {
		parts[i] = fmt.Sprintf("%s=%v", name, cell[name])
	}
	return strings.Join(parts, " ")
}

// num reads a metric as a number, booleans as 0/1.
func num(v any) (float64, bool) {
	switch x := v.(type) {
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// relDelta returns |new-old| / |old|; any nonzero value against a zero
// baseline counts as a full-size change.
func relDelta(oldV, newV float64) float64 {
	if oldV == newV {
		return 0
	}
	if oldV == 0 {
		return 1
	}
	return math.Abs((newV - oldV) / oldV)
}

// diff compares fresh against baseline and writes one line per skipped
// cell, warning and failure to out. It returns the number of matched
// cells and of strict failures; err reports input the two cannot be
// compared on at all.
func diff(out io.Writer, baseline, fresh report, tol float64) (matched, failures int, err error) {
	if baseline.Schema != fresh.Schema {
		return 0, 0, fmt.Errorf("schema mismatch: %q vs %q", baseline.Schema, fresh.Schema)
	}
	if !slices.Equal(baseline.Key, fresh.Key) {
		return 0, 0, fmt.Errorf("key list mismatch: %v vs %v", baseline.Key, fresh.Key)
	}
	byKey := map[string]map[string]any{}
	for _, c := range baseline.Cells {
		k := cellKey(baseline.Key, c)
		for _, name := range baseline.Strict {
			if _, ok := c[name]; !ok {
				return 0, 0, fmt.Errorf("baseline cell %s: strict name %q is not a field of the cell", k, name)
			}
		}
		byKey[k] = c
	}
	for _, nc := range fresh.Cells {
		k := cellKey(fresh.Key, nc)
		oc, ok := byKey[k]
		if !ok {
			fmt.Fprintf(out, "cell %s: no baseline, skipped\n", k)
			continue
		}
		matched++
		for _, name := range slices.Sorted(maps.Keys(oc)) {
			if slices.Contains(baseline.Key, name) {
				continue
			}
			strict := slices.Contains(baseline.Strict, name)
			ov, okOld := num(oc[name])
			nraw, present := nc[name]
			nv, okNew := num(nraw)
			if !okOld || (present && !okNew) {
				return matched, failures, fmt.Errorf("cell %s: %s is not a number or boolean (strings belong in key fields only)", k, name)
			}
			switch {
			case !present && strict:
				failures++
				fmt.Fprintf(out, "FAIL cell %s: %s is missing from the fresh cell\n", k, name)
			case !present || relDelta(ov, nv) <= tol:
			case !strict:
				fmt.Fprintf(out, "warn cell %s: %s %.6g -> %.6g (machine-dependent)\n", k, name, ov, nv)
			case ov == 0:
				failures++
				fmt.Fprintf(out, "FAIL cell %s: %s 0 -> %.6g (baseline is zero)\n", k, name, nv)
			default:
				failures++
				fmt.Fprintf(out, "FAIL cell %s: %s %.6g -> %.6g (%+.1f%%)\n", k, name, ov, nv, 100*(nv-ov)/ov)
			}
		}
	}
	if matched == 0 {
		return 0, failures, fmt.Errorf("no fresh cell matches a baseline cell")
	}
	return matched, failures, nil
}

func main() {
	var (
		oldPath = flag.String("old", "BENCH_soak.json", "committed baseline report")
		newPath = flag.String("new", "", "freshly generated report")
		tol     = flag.Float64("tol", 0.10, "relative tolerance on deterministic metrics")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	baseline, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	matched, failures, err := diff(os.Stdout, baseline, fresh, *tol)
	if err != nil {
		fatal(fmt.Errorf("%s vs %s: %w", *oldPath, *newPath, err))
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d deterministic metric(s) regressed beyond %.0f%%", failures, 100**tol))
	}
	fmt.Printf("ok: %d cell(s) matched, no deterministic regressions\n", matched)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
