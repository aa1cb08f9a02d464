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
	"geographer/internal/repart"
)

// StreamRow is one timestep measurement of the streaming repartitioning
// experiment: a long-lived Session (one ingest, T warm k-means steps)
// against the chain of one-shot Repartition calls that re-ingests every
// step, and against a chain that partitions every step from scratch.
// The session and one-shot chains produce bit-identical partitions (the
// driver verifies this), so their cut/imbalance/migration agree and the
// comparison isolates the ingest amortization; the scratch chain is the
// baseline for migration volume, the cost warm starts exist to cut.
type StreamRow struct {
	Graph string
	// Step 0 is the common cold initial partition (mode "cold"); steps
	// 1..T are warm repartitioning steps under perturbed weights.
	Step int
	// Mode is "cold" (shared initial partition), "session" (resident
	// state, ingest paid once at construction), "oneshot"
	// (repart.Repartition per step, ingest paid every step), or
	// "scratch" (a full cold Partition per step; its Seconds include the
	// scatter, keys and sort, which IngestSeconds does not split out).
	Mode string
	K, P int

	// Seconds is the wall time of this step's partitioning call (for
	// session steps, UpdateWeights + Repartition) — it excludes ingest
	// for session steps by construction, because
	// the ingest happened once in NewSession (IngestSeconds of the
	// step-0 "session" accounting below).
	Seconds float64
	// IngestSeconds is the scatter + resident-column build time paid at
	// this step: the session pays it only at step 0, the one-shot chain
	// on every step.
	IngestSeconds float64
	// KMeansSeconds is the k-means phase of this step (rank 0).
	KMeansSeconds float64

	Cut            int64
	Imbalance      float64
	MigratedWeight float64
	MigratedFrac   float64 // MigratedWeight / total point weight, against the chain's own previous partition

	// Incremental-path observability (bounds carried across warm
	// steps): the step's global distance evaluations and Hamerly bound
	// skips, whether the step reused bounds carried from the previous
	// warm step on every rank, and the fraction of points its first
	// assignment pass examined. The session chain carries bounds from
	// its second warm step on; the one-shot and scratch chains always
	// report Incremental=false — the delta in DistCalcs between the
	// two chains at equal partitions is the optimization, made visible.
	DistCalcs    int64
	HamerlySkips int64
	BoundaryFrac float64
	Incremental  bool
}

// streamSteps is the number of perturbed timesteps after the common
// initial partition (T of the acceptance scenario).
const streamSteps = 5

// Stream runs the streaming timestep driver: the dynamic-load workloads
// (climate with layer weights, refined 2D), T = streamSteps
// perturbed-weight steps, partitioned by (a) one long-lived
// repart.Session — ingest once, then UpdateWeights + Repartition per
// step — (b) the equivalent chain of one-shot Repartition calls, which
// re-scatters and re-ingests every step, and (c) a fresh cold Partition
// per step. All three chains start from the session's cold partition.
// (a) and (b) are verified bit-identical step by step; their difference
// is pure cost: the session's per-step time excludes re-ingest, so
// ingest appears once (step 0) in its phase breakdown instead of once
// per step. (c) prices the warm start: the summary compares the
// session's total migrated weight with the scratch chain's.
func Stream(w io.Writer, sc Scale) ([]StreamRow, error) {
	const p = 4
	var out []StreamRow
	fmt.Fprintf(w, "Streaming session vs per-step one-shot vs from-scratch repartitioning over %d perturbed timesteps, p=%d\n", streamSteps, p)
	for _, wl := range repartWorkloads(sc) {
		m, err := mesh.Generate(wl.kind, wl.n, 42)
		if err != nil {
			return nil, err
		}
		cfg := seededConfig()

		// The session ingests the coordinates once, at t=0 load.
		ps0 := atStep(m, 0)
		ch, err := runChain(ps0, wl.k, p, cfg, nil, streamSteps, func(t int) []float64 {
			return perturbedWeights(m, t)
		})
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", wl.kind, err)
		}
		initial := ch.Assign[0]
		rep, err := metrics.Evaluate(m.G, ps0, initial, wl.k)
		if err != nil {
			return nil, err
		}
		coldInfo := ch.ColdInfo
		out = append(out, StreamRow{
			Graph: wl.kind, Step: 0, Mode: "cold", K: wl.k, P: p,
			Seconds: ch.ColdSec, IngestSeconds: ch.IngestSec,
			KMeansSeconds: coldInfo.KMeansSeconds,
			Cut:           rep.EdgeCut, Imbalance: rep.Imbalance,
			DistCalcs: coldInfo.DistCalcs, HamerlySkips: coldInfo.HamerlySkips,
			BoundaryFrac: 1,
		})

		fmt.Fprintf(w, "\n%-10s n=%d k=%d (cold init %.4fs, session ingest %.4fs — paid once)\n",
			wl.kind, m.N(), wl.k, ch.ColdSec, ch.IngestSec)
		fmt.Fprintf(w, "%4s %-8s %10s %10s %10s %8s %10s %12s %8s %10s %6s %4s\n",
			"step", "mode", "wall[s]", "ingest[s]", "kmeans[s]", "cut", "imbalance", "migrated_w", "mig%", "dist", "bnd%", "inc")

		totals := map[string]float64{}
		prevOneshot, prevScratch := initial, initial
		for t := 1; t <= streamSteps; t++ {
			// Session step (from the chain): the weight delta applied in
			// place, warm k-means on the resident columns.
			pw, stw := ch.Assign[t], ch.Steps[t-1]

			// One-shot step: the same warm step through repart.Repartition,
			// which scatters and ingests the whole point set again.
			ps := atStep(m, t)
			t0 := time.Now()
			po, sto, err := repart.Repartition(mpi.NewWorld(p), ps, prevOneshot, wl.k, cfg)
			if err != nil {
				return nil, fmt.Errorf("stream oneshot %s step %d: %w", wl.kind, t, err)
			}
			oneSecs := time.Since(t0).Seconds()

			// The chains must stay bit-identical (the differential test
			// pins this too; failing here means the session diverged).
			if !sameAssign(pw, po.Assign) {
				return nil, fmt.Errorf("stream %s step %d: session and one-shot partitions diverged", wl.kind, t)
			}
			prevOneshot = po.Assign

			// Scratch step: a cold Partition of this step's load.
			bkm := core.New(cfg)
			t0 = time.Now()
			pn, err := partition.Run(mpi.NewWorld(p), ps, wl.k, bkm)
			if err != nil {
				return nil, fmt.Errorf("stream scratch %s step %d: %w", wl.kind, t, err)
			}
			scratchSecs := time.Since(t0).Seconds()
			scratchMig, _, err := metrics.MigrationVolume(ps, prevScratch, pn.Assign)
			if err != nil {
				return nil, err
			}
			prevScratch = pn.Assign

			warmRep, err := metrics.Evaluate(m.G, ps, pw, wl.k)
			if err != nil {
				return nil, err
			}
			scratchRep, err := metrics.Evaluate(m.G, ps, pn.Assign, wl.k)
			if err != nil {
				return nil, err
			}

			// Each chain reports its own stats (the session and one-shot
			// partitions are equal — the check above ran — but the cost
			// counters are exactly where they differ: the session's steps
			// turn incremental once bounds can be carried).
			warmRow := func(mode string, st repart.Stats, secs, ingest float64) StreamRow {
				return StreamRow{
					Mode: mode, Seconds: secs, IngestSeconds: ingest, KMeansSeconds: st.Info.KMeansSeconds,
					Cut: warmRep.EdgeCut, Imbalance: warmRep.Imbalance,
					MigratedWeight: st.MigratedWeight, MigratedFrac: fraction(st.MigratedWeight, st.TotalWeight),
					DistCalcs: st.Info.DistCalcs, HamerlySkips: st.Info.HamerlySkips,
					BoundaryFrac: st.Info.BoundaryFrac, Incremental: st.Info.CarriedBounds,
				}
			}
			info := bkm.LastInfo()
			steps := []StreamRow{
				warmRow("session", stw, ch.StepSec[t-1], 0),
				warmRow("oneshot", sto, oneSecs, sto.IngestSeconds),
				{
					Mode: "scratch", Seconds: scratchSecs, KMeansSeconds: info.KMeansSeconds,
					Cut: scratchRep.EdgeCut, Imbalance: scratchRep.Imbalance,
					MigratedWeight: scratchMig, MigratedFrac: fraction(scratchMig, ps.TotalWeight()),
					DistCalcs: info.DistCalcs, HamerlySkips: info.HamerlySkips, BoundaryFrac: 1,
				},
			}
			for _, row := range steps {
				row.Graph, row.Step, row.K, row.P = wl.kind, t, wl.k, p
				out = append(out, row)
				totals[row.Mode+"_sec"] += row.Seconds
				totals[row.Mode+"_ing"] += row.IngestSeconds
				totals[row.Mode+"_dist"] += float64(row.DistCalcs)
				totals[row.Mode+"_km"] += row.KMeansSeconds
				totals[row.Mode+"_mig"] += row.MigratedWeight
				inc := " "
				if row.Incremental {
					inc = "*"
				}
				fmt.Fprintf(w, "%4d %-8s %10.4f %10.4f %10.4f %8d %10.4f %12.1f %7.1f%% %10d %5.1f%% %4s\n",
					t, row.Mode, row.Seconds, row.IngestSeconds, row.KMeansSeconds,
					row.Cut, row.Imbalance, row.MigratedWeight, 100*row.MigratedFrac,
					row.DistCalcs, 100*row.BoundaryFrac, inc)
			}
		}
		fmt.Fprintf(w, "summary %s: %d warm steps in %.4fs with the session vs %.4fs one-shot (%.2fx); ingest %.4fs once vs %.4fs re-paid across steps; dist calcs %.0f vs %.0f (%.2fx), warm k-means %.4fs vs %.4fs (%.2fx); partitions bit-identical; migrated weight session %.1f vs scratch %.1f (%.2fx less)\n",
			wl.kind, streamSteps, totals["session_sec"], totals["oneshot_sec"],
			safeRatio(totals["oneshot_sec"], totals["session_sec"]),
			ch.IngestSec, totals["oneshot_ing"],
			totals["session_dist"], totals["oneshot_dist"],
			safeRatio(totals["oneshot_dist"], totals["session_dist"]),
			totals["session_km"], totals["oneshot_km"],
			safeRatio(totals["oneshot_km"], totals["session_km"]),
			totals["session_mig"], totals["scratch_mig"],
			safeRatio(totals["scratch_mig"], totals["session_mig"]))
	}
	return out, nil
}

// safeRatio is a / b, or +Inf when b is 0.
func safeRatio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// fraction is part / total, or 0 when total is not positive.
func fraction(part, total float64) float64 {
	if total > 0 {
		return part / total
	}
	return 0
}
