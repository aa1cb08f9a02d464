package experiments

import (
	"encoding/json"
	"io"
)

// Report is the one envelope of every fence report (BENCH_<exp>.json):
// flat, typed cells under a header that tells tools/benchdiff how to
// read them, so the differ knows no schema. Key names the cell fields
// that identify a cell (its configuration); Strict names the fields that
// are exact functions of that configuration and must reproduce run to
// run — drift there fails the diff. Every other numeric field of a cell
// (wall time, RSS, allocation counters, latency) is machine-dependent
// and warn-only by construction. Each experiment declares its header
// once, beside its cell struct; TestFenceHeadersNameCellFields pins
// every listed name to a JSON field of the cell.
//
// Soak, Highdim, Chaos, Serve and Durable return cells only from a run
// that finished: a non-nil error next to a report with cells is a
// violated headline invariant of a complete run (the report is still
// worth writing), while a run that failed returns a report with none.
type Report[C any] struct {
	Schema string   `json:"schema"`
	Key    []string `json:"key"`
	Strict []string `json:"strict"`
	Cells  []C      `json:"cells"`
}

// WriteReportJSON writes a fence report as indented JSON (the
// BENCH_<exp>.json format).
func WriteReportJSON[C any](w io.Writer, rep Report[C]) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
