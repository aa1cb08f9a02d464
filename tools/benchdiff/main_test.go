package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadString runs a report literal through load, the way main reads it.
func loadString(t *testing.T, doc string) (report, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return load(path)
}

// doc renders a two-key report (graph, n) with dist_calcs and identical
// strict and wall_sec warn-only.
func doc(cells ...string) string {
	return fmt.Sprintf(`{"schema": "test/v1", "key": ["graph", "n"], "strict": ["dist_calcs", "identical"], "cells": [%s]}`,
		strings.Join(cells, ","))
}

const baseCell = `{"graph": "tri", "n": 2000000, "dist_calcs": 1000, "identical": true, "wall_sec": 1.5}`

func TestDiff(t *testing.T) {
	cases := []struct {
		name         string
		old, new     string
		tol          float64
		wantMatched  int
		wantFailures int
		wantErr      string // substring; "" = no error
		wantOut      string // substring of the printed lines; "" = not checked
	}{
		{name: "identical reports pass", old: doc(baseCell), new: doc(baseCell), tol: 0.1, wantMatched: 1},
		{name: "strict drift fails and names cell and field",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 1200, "identical": true, "wall_sec": 1.5}`),
			tol: 0.1, wantMatched: 1, wantFailures: 1,
			wantOut: "FAIL cell graph=tri n=2000000: dist_calcs 1000 -> 1200 (+20.0%)"},
		{name: "strict drift within tolerance passes",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 1050, "identical": true, "wall_sec": 1.5}`),
			tol: 0.1, wantMatched: 1},
		{name: "warn-only drift does not fail",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 1000, "identical": true, "wall_sec": 9}`),
			tol: 0.1, wantMatched: 1, wantOut: "warn cell graph=tri n=2000000: wall_sec 1.5 -> 9"},
		{name: "zero baseline against a value fails with a finite message",
			old: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 0, "identical": true}`),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 5, "identical": true}`),
			tol: 0.1, wantMatched: 1, wantFailures: 1, wantOut: "dist_calcs 0 -> 5 (baseline is zero)"},
		{name: "strict field missing from the fresh cell fails",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "identical": true, "wall_sec": 1.5}`),
			tol: 0.1, wantMatched: 1, wantFailures: 1, wantOut: "dist_calcs is missing from the fresh cell"},
		{name: "warn-only field missing from the fresh cell passes",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 1000, "identical": true}`),
			tol: 0.1, wantMatched: 1},
		{name: "booleans compare as 1 and 0",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": 1000, "identical": false, "wall_sec": 1.5}`),
			tol: 0.1, wantMatched: 1, wantFailures: 1, wantOut: "identical 1 -> 0 (-100.0%)"},
		{name: "string in a non-key field is an error",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 2000000, "dist_calcs": "1000", "identical": true, "wall_sec": 1.5}`),
			tol: 0.1, wantErr: "dist_calcs is not a number or boolean"},
		{name: "cell on one side only is skipped with a note",
			old: doc(baseCell, `{"graph": "quad", "n": 10, "dist_calcs": 1, "identical": true}`),
			new: doc(baseCell, `{"graph": "hex", "n": 10, "dist_calcs": 7, "identical": true}`),
			tol: 0.1, wantMatched: 1, wantOut: "cell graph=hex n=10: no baseline, skipped"},
		{name: "no matched cell is an error",
			old: doc(baseCell),
			new: doc(`{"graph": "tri", "n": 10, "dist_calcs": 1000, "identical": true}`),
			tol: 0.1, wantErr: "no fresh cell matches"},
		{name: "schema mismatch is an error",
			old: doc(baseCell), new: strings.Replace(doc(baseCell), "test/v1", "test/v2", 1),
			tol: 0.1, wantErr: "schema mismatch"},
		{name: "key list mismatch is an error",
			old: doc(baseCell), new: strings.Replace(doc(baseCell), `["graph", "n"]`, `["n", "graph"]`, 1),
			tol: 0.1, wantErr: "key list mismatch"},
		{name: "baseline strict name that is no cell field is an error",
			old: strings.Replace(doc(baseCell), `"strict": ["dist_calcs"`, `"strict": ["dist_calc"`, 1), new: doc(baseCell),
			tol: 0.1, wantErr: `strict name "dist_calc" is not a field of the cell`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldRep, err := loadString(t, tc.old)
			if err != nil {
				t.Fatal(err)
			}
			newRep, err := loadString(t, tc.new)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			matched, failures, err := diff(&out, oldRep, newRep, tc.tol)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if matched != tc.wantMatched || failures != tc.wantFailures {
				t.Errorf("matched %d failures %d, want %d and %d\n%s", matched, failures, tc.wantMatched, tc.wantFailures, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output %q does not contain %q", out.String(), tc.wantOut)
			}
			if strings.Contains(out.String(), "Inf") || strings.Contains(out.String(), "NaN") {
				t.Errorf("non-finite number printed: %q", out.String())
			}
		})
	}
}

// A report written before the envelope existed (schema and cells only)
// must be refused, not diffed as zero cells.
func TestLoadRejectsReportWithoutKeyList(t *testing.T) {
	_, err := loadString(t, `{"schema": "geographer-soak/v1", "cells": [{"n": 1, "collectives": 2}]}`)
	if err == nil || !strings.Contains(err.Error(), "not a fence report") {
		t.Fatalf("err = %v, want a not-a-fence-report error", err)
	}
}
