package experiments

import (
	"fmt"
	"io"

	"geographer/internal/core"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// PhaseRow is one phase-time breakdown of a Geographer run: where the
// wall clock goes between the ingest pipeline (Hilbert keys + global
// sort/redistribution, §4.1) and the balanced k-means itself. Perf PRs
// report their before/after against these rows so speedups are
// attributed to the phase that actually moved.
type PhaseRow struct {
	Graph   string
	N, K, P int

	SFCSeconds    float64 // batch Hilbert key computation
	SortSeconds   float64 // distributed sample sort + exact rebalance
	KMeansSeconds float64 // Algorithm 1/2 rounds
	TotalSeconds  float64
	IngestShare   float64 // (sfc+sort)/total
}

// phaseWorkloads lists the tracked ingest workloads: the facade workload
// (refined 2D mesh, n=20k, k=16, p=4 — BenchmarkPartitionFacade's shape)
// plus a 3D mesh so both key kernels and both exchange layouts stay
// measured. Sizes scale with sc.Table2N (20k at default scale).
func phaseWorkloads(sc Scale) []struct {
	kind string
	n, k int
} {
	return []struct {
		kind string
		n, k int
	}{
		{"refined", sc.Table2N, 16},
		{"tube3d", sc.Table2N * 3 / 4, 12},
	}
}

// Phases measures the ingest/sort vs k-means phase breakdown of
// Geographer on the tracked workloads (p = 4 simulated ranks, best of
// sc.Repeats runs — wall-clock minima are the stable perf signal).
func Phases(w io.Writer, sc Scale) ([]PhaseRow, error) {
	const p = 4
	repeats := sc.Repeats
	if repeats < 1 {
		repeats = 1
	}
	fmt.Fprintf(w, "Phase breakdown: ingest (sfc keys + sort/redistribute) vs k-means, p=%d, best of %d\n", p, repeats)
	fmt.Fprintf(w, "%-10s %8s %4s %10s %10s %10s %10s %8s\n",
		"graph", "n", "k", "sfc[s]", "sort[s]", "kmeans[s]", "total[s]", "ingest%")
	var out []PhaseRow
	for _, wl := range phaseWorkloads(sc) {
		m, err := genMesh(wl.kind, wl.n, 42)
		if err != nil {
			return nil, err
		}
		cfg := seededConfig()
		row := PhaseRow{Graph: wl.kind, N: m.N(), K: wl.k, P: p}
		for rep := 0; rep < repeats; rep++ {
			bkm := core.New(cfg)
			world := mpi.NewWorld(p)
			if _, err := partition.Run(world, m.Points, wl.k, bkm); err != nil {
				return nil, err
			}
			info := bkm.LastInfo()
			total := info.SFCSeconds + info.SortSeconds + info.KMeansSeconds
			if rep == 0 || total < row.TotalSeconds {
				row.SFCSeconds = info.SFCSeconds
				row.SortSeconds = info.SortSeconds
				row.KMeansSeconds = info.KMeansSeconds
				row.TotalSeconds = total
			}
		}
		if row.TotalSeconds > 0 {
			row.IngestShare = (row.SFCSeconds + row.SortSeconds) / row.TotalSeconds
		}
		out = append(out, row)
		fmt.Fprintf(w, "%-10s %8d %4d %10.4f %10.4f %10.4f %10.4f %7.1f%%\n",
			row.Graph, row.N, row.K, row.SFCSeconds, row.SortSeconds,
			row.KMeansSeconds, row.TotalSeconds, 100*row.IngestShare)
	}
	return out, nil
}
