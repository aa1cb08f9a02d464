package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteRowsCSV dumps measurement rows as CSV for external plotting.
func WriteRowsCSV(w io.Writer, rows []Row) error {
	header := []string{"graph", "n", "m", "tool", "k", "p", "wall_s", "modeled_s",
		"sfc_s", "sort_s", "kmeans_s",
		"cut", "max_comm", "tot_comm", "harm_diam", "imbalance", "spmv_comm_s", "spmv_wall_s"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{
			r.Graph,
			strconv.Itoa(r.N),
			strconv.FormatInt(r.M, 10),
			r.Tool,
			strconv.Itoa(r.K),
			strconv.Itoa(r.P),
			fmtF(r.Seconds),
			fmtF(r.ModelSeconds),
			fmtF(r.SFCSeconds),
			fmtF(r.SortSeconds),
			fmtF(r.KMeansSeconds),
			strconv.FormatInt(r.Cut, 10),
			strconv.FormatInt(r.MaxComm, 10),
			strconv.FormatInt(r.TotComm, 10),
			fmtF(r.HarmDiam),
			fmtF(r.Imbalance),
			fmtF(r.SpMVComm),
			fmtF(r.SpMVWall),
		}
	})
}

// WriteStreamRowsCSV dumps the streaming-session timesteps (see
// docs/cli.md for the column reference).
func WriteStreamRowsCSV(w io.Writer, rows []StreamRow) error {
	header := []string{"graph", "step", "mode", "k", "p",
		"wall_s", "ingest_s", "kmeans_s", "cut", "imbalance", "migrated_w", "migrated_frac",
		"dist_calcs", "hamerly_skips", "boundary_frac", "incremental"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Graph, strconv.Itoa(r.Step), r.Mode, strconv.Itoa(r.K), strconv.Itoa(r.P),
			fmtF(r.Seconds), fmtF(r.IngestSeconds), fmtF(r.KMeansSeconds),
			strconv.FormatInt(r.Cut, 10), fmtF(r.Imbalance),
			fmtF(r.MigratedWeight), fmtF(r.MigratedFrac),
			strconv.FormatInt(r.DistCalcs, 10), strconv.FormatInt(r.HamerlySkips, 10),
			fmtF(r.BoundaryFrac), strconv.FormatBool(r.Incremental)}
	})
}

// WriteChaosRowsCSV dumps the fault-injection timesteps (see
// docs/cli.md for the column reference).
func WriteChaosRowsCSV(w io.Writer, rows []ChaosRow) error {
	header := []string{"graph", "step", "k", "p",
		"retries", "fired_total", "identical", "pre_imbalance", "migrated_w",
		"dist_calcs", "wall_s", "ref_wall_s"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.Graph, strconv.Itoa(r.Step), strconv.Itoa(r.K), strconv.Itoa(r.P),
			strconv.Itoa(r.Retries), strconv.FormatInt(r.FiredTotal, 10),
			strconv.FormatBool(r.Identical), fmtF(r.PreImbalance), fmtF(r.MigratedWeight),
			strconv.FormatInt(r.DistCalcs, 10), fmtF(r.Seconds), fmtF(r.RefSeconds)}
	})
}

// WriteScalePointsCSV dumps scaling series (Figures 3a/3b).
func WriteScalePointsCSV(w io.Writer, pts []ScalePoint) error {
	header := []string{"tool", "p", "k", "n", "wall_s", "modeled_s"}
	return writeCSV(w, header, len(pts), func(i int) []string {
		pt := pts[i]
		return []string{pt.Tool, strconv.Itoa(pt.P), strconv.Itoa(pt.K), strconv.Itoa(pt.N),
			fmtF(pt.Seconds), fmtF(pt.ModelSeconds)}
	})
}

// WriteRatiosCSV dumps Figure 2 class ratios.
func WriteRatiosCSV(w io.Writer, ratios []ClassRatios) error {
	header := []string{"class", "tool", "edge_cut", "max_comm", "tot_comm", "harm_diam", "time_comm", "instances"}
	return writeCSV(w, header, len(ratios), func(i int) []string {
		r := ratios[i]
		return []string{r.Class, r.Tool, fmtF(r.EdgeCut), fmtF(r.MaxComm), fmtF(r.TotComm),
			fmtF(r.HarmDiam), fmtF(r.TimeComm), strconv.Itoa(r.Instances)}
	})
}

// writeCSV writes the header and then record(0..n-1) through one
// csv.Writer, returning the first write or flush error.
func writeCSV(w io.Writer, header []string, n int, record func(i int) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := cw.Write(record(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return fmt.Sprintf("%g", v) }
