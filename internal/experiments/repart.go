package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"geographer/internal/core"
	"geographer/internal/mesh"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// RepartRow is one timestep measurement of the dynamic-load scenario:
// one row per (workload, timestep, mode), where mode is "warm"
// (repartitioning seeded from the previous partition) or "scratch" (a
// fresh Partition every step). Migration is measured against the
// mode's own previous partition — the one the simulated application
// would actually be holding its data in.
type RepartRow struct {
	Graph string
	Step  int
	Mode  string // "warm" | "scratch"
	K, P  int

	Seconds        float64 // wall-clock partitioning time of this step
	Cut            int64
	Imbalance      float64
	MigratedWeight float64
	MigratedFrac   float64 // MigratedWeight / total point weight
}

// repartSteps is the number of perturbed timesteps after the common
// initial partition.
const repartSteps = 5

// perturbedWeights models evolving simulation load at timestep t: the
// base weights drift under a smooth spatial wave (amplitude ±40%) whose
// phase advances with t — deterministic, strictly positive, and
// spatially correlated like real load evolution (a climate front or a
// refinement region moving through the mesh, paper §1).
func perturbedWeights(m *mesh.Mesh, t int) []float64 {
	ps := m.Points
	n := ps.Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		x := ps.Coords[i*ps.Dim]
		y := ps.Coords[i*ps.Dim+1]
		wave := math.Sin(0.08*x + 0.05*y + 0.9*float64(t)) // spatial wave, phase moves per step
		out[i] = ps.W(i) * (1 + 0.4*wave)
	}
	return out
}

// repartWorkloads lists the dynamic-load scenarios: the 2.5D climate
// mesh (the paper's motivating repartitioning use case, with layer
// weights) and a refined 2D mesh (unit base weights).
func repartWorkloads(sc Scale) []struct {
	kind string
	n, k int
} {
	return []struct {
		kind string
		n, k int
	}{
		{"climate", sc.Table2N, 16},
		{"refined", sc.Table2N, 16},
	}
}

// Repart runs the warm-start repartitioning experiment: T timesteps of
// evolving node weights, partitioned once per step either by warm-start
// repartitioning (a long-lived repart.Session: previous centers, no SFC
// phase, resident state — ingest paid once) or from scratch (a full
// Partition per step). Both chains start from the same initial
// partition. Reported per step: wall time, edge cut, imbalance, and the
// migration volume against the chain's previous partition. The summary
// compares total migrated weight — the measure warm starts exist to
// minimize.
func Repart(w io.Writer, sc Scale) ([]RepartRow, error) {
	const p = 4
	var out []RepartRow
	fmt.Fprintf(w, "Warm-start repartitioning vs from-scratch over %d perturbed timesteps, p=%d\n", repartSteps, p)
	for _, wl := range repartWorkloads(sc) {
		m, err := genMesh(wl.kind, wl.n, 42)
		if err != nil {
			return nil, err
		}
		cfg := seededConfig()

		// The warm chain: one session whose cold partition at t=0 load
		// (bit-identical to a one-shot partition.Run) is also the scratch
		// chain's starting point, then per step a delta application on the
		// resident state and one warm k-means phase — no re-scatter, no
		// re-ingest.
		warm, err := runChain(atStep(m, 0), wl.k, p, cfg, nil, repartSteps, func(t int) []float64 {
			return perturbedWeights(m, t)
		})
		if err != nil {
			return nil, fmt.Errorf("repart %s: %w", wl.kind, err)
		}

		fmt.Fprintf(w, "\n%-10s n=%d k=%d\n", wl.kind, m.N(), wl.k)
		fmt.Fprintf(w, "%4s %-8s %10s %8s %10s %12s %8s\n",
			"step", "mode", "wall[s]", "cut", "imbalance", "migrated_w", "mig%")

		totals := map[string]float64{}
		prev := map[string][]int32{"warm": warm.Assign[0], "scratch": warm.Assign[0]}
		for t := 1; t <= repartSteps; t++ {
			ps := atStep(m, t)
			for _, mode := range []string{"warm", "scratch"} {
				assign, secs := warm.Assign[t], warm.StepSec[t-1]
				if mode == "scratch" {
					t0 := time.Now()
					pn, err := partition.Run(mpi.NewWorld(p), ps, wl.k, core.New(cfg))
					if err != nil {
						return nil, fmt.Errorf("scratch %s step %d: %w", wl.kind, t, err)
					}
					assign, secs = pn.Assign, time.Since(t0).Seconds()
				}

				rep, err := metrics.Evaluate(m.G, ps, assign, wl.k)
				if err != nil {
					return nil, err
				}
				migW, _, err := metrics.MigrationVolume(ps, prev[mode], assign)
				if err != nil {
					return nil, err
				}
				row := RepartRow{
					Graph: wl.kind, Step: t, Mode: mode, K: wl.k, P: p,
					Seconds: secs, Cut: rep.EdgeCut, Imbalance: rep.Imbalance,
					MigratedWeight: migW,
				}
				if total := ps.TotalWeight(); total > 0 {
					row.MigratedFrac = migW / total
				}
				out = append(out, row)
				totals[mode+"_mig"] += migW
				totals[mode+"_sec"] += secs
				totals[mode+"_cut"] += float64(rep.EdgeCut)
				prev[mode] = assign
				fmt.Fprintf(w, "%4d %-8s %10.4f %8d %10.4f %12.1f %7.1f%%\n",
					t, mode, secs, rep.EdgeCut, rep.Imbalance, migW, 100*row.MigratedFrac)
			}
		}
		fmt.Fprintf(w, "summary %s: migrated weight warm %.1f vs scratch %.1f (%.2fx less), time warm %.4fs vs scratch %.4fs, mean cut warm %.0f vs scratch %.0f\n",
			wl.kind, totals["warm_mig"], totals["scratch_mig"],
			safeRatio(totals["scratch_mig"], totals["warm_mig"]),
			totals["warm_sec"], totals["scratch_sec"],
			totals["warm_cut"]/repartSteps, totals["scratch_cut"]/repartSteps)
	}
	return out, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}
