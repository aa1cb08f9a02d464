package experiments

import (
	"fmt"
	"io"
	"time"

	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// StreamRow is one timestep measurement of the streaming repartitioning
// experiment: a long-lived Session (one ingest, T warm k-means steps)
// against the chain of one-shot Repartition calls that re-ingests every
// step. Both chains produce bit-identical partitions (the driver
// verifies this), so cut/imbalance/migration agree and the comparison
// isolates the ingest amortization.
type StreamRow struct {
	Graph string
	// Step 0 is the common cold initial partition (mode "cold"); steps
	// 1..T are warm repartitioning steps under perturbed weights.
	Step int
	// Mode is "cold" (shared initial partition), "session" (resident
	// state, ingest paid once at construction), or "oneshot"
	// (repart.Repartition per step, ingest paid every step).
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
	// KMeansSeconds is the warm k-means phase of this step (rank 0).
	KMeansSeconds float64

	Cut            int64
	Imbalance      float64
	MigratedWeight float64
	MigratedFrac   float64 // MigratedWeight / total point weight

	// Incremental-path observability (bounds carried across warm
	// steps): the step's global distance evaluations and Hamerly bound
	// skips, whether the step reused bounds carried from the previous
	// warm step on every rank, and the fraction of points its first
	// assignment pass examined. The session chain carries bounds from
	// its second warm step on; the one-shot chain re-ingests and always
	// reports Incremental=false — the delta in DistCalcs between the
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
// of the repart experiment (climate with layer weights, refined 2D),
// T = streamSteps perturbed-weight steps, partitioned by (a) one
// long-lived repart.Session — ingest once, then UpdateWeights +
// Repartition per step — and (b) the equivalent chain of one-shot
// Repartition calls, which re-scatters and re-ingests every step. The
// two chains are verified bit-identical step by step; the reported
// difference is pure cost: the session's per-step time excludes
// re-ingest, so ingest appears once (step 0) in its phase breakdown
// instead of once per step.
func Stream(w io.Writer, sc Scale) ([]StreamRow, error) {
	const p = 4
	var out []StreamRow
	fmt.Fprintf(w, "Streaming session vs per-step one-shot repartitioning over %d perturbed timesteps, p=%d\n", streamSteps, p)
	for _, wl := range repartWorkloads(sc) {
		m, err := genMesh(wl.kind, wl.n, 42)
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
		prevOneshot := initial
		for t := 1; t <= streamSteps; t++ {
			// Session step (from the chain): the weight delta applied in
			// place, warm k-means on the resident columns.
			pw, stw, sessSecs := ch.Assign[t], ch.Steps[t-1], ch.StepSec[t-1]

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

			rep, err := metrics.Evaluate(m.G, ps, pw, wl.k)
			if err != nil {
				return nil, err
			}
			for _, mode := range []string{"session", "oneshot"} {
				row := StreamRow{
					Graph: wl.kind, Step: t, Mode: mode, K: wl.k, P: p,
					Cut: rep.EdgeCut, Imbalance: rep.Imbalance,
				}
				// Each chain reports its own stats (the partitions are
				// equal — the check above ran — but the cost counters are
				// exactly where the chains differ: the session's steps
				// turn incremental once bounds can be carried).
				st := stw
				if mode == "session" {
					row.Seconds, row.IngestSeconds, row.KMeansSeconds = sessSecs, 0, stw.Info.KMeansSeconds
				} else {
					st = sto
					row.Seconds, row.IngestSeconds, row.KMeansSeconds = oneSecs, sto.IngestSeconds, sto.Info.KMeansSeconds
				}
				row.MigratedWeight = st.MigratedWeight
				if st.TotalWeight > 0 {
					row.MigratedFrac = st.MigratedWeight / st.TotalWeight
				}
				row.DistCalcs = st.Info.DistCalcs
				row.HamerlySkips = st.Info.HamerlySkips
				row.BoundaryFrac = st.Info.BoundaryFrac
				row.Incremental = st.Info.CarriedBounds
				out = append(out, row)
				totals[mode+"_sec"] += row.Seconds
				totals[mode+"_ing"] += row.IngestSeconds
				totals[mode+"_dist"] += float64(row.DistCalcs)
				totals[mode+"_km"] += row.KMeansSeconds
				inc := " "
				if row.Incremental {
					inc = "*"
				}
				fmt.Fprintf(w, "%4d %-8s %10.4f %10.4f %10.4f %8d %10.4f %12.1f %7.1f%% %10d %5.1f%% %4s\n",
					t, mode, row.Seconds, row.IngestSeconds, row.KMeansSeconds,
					row.Cut, row.Imbalance, row.MigratedWeight, 100*row.MigratedFrac,
					row.DistCalcs, 100*row.BoundaryFrac, inc)
			}
		}
		ingestOnce := ch.IngestSec
		fmt.Fprintf(w, "summary %s: %d warm steps in %.4fs with the session vs %.4fs one-shot (%.2fx); ingest %.4fs once vs %.4fs re-paid across steps; dist calcs %.0f vs %.0f (%.2fx), warm k-means %.4fs vs %.4fs (%.2fx); partitions bit-identical\n",
			wl.kind, streamSteps, totals["session_sec"], totals["oneshot_sec"],
			safeRatio(totals["oneshot_sec"], totals["session_sec"]),
			ingestOnce, totals["oneshot_ing"],
			totals["session_dist"], totals["oneshot_dist"],
			safeRatio(totals["oneshot_dist"], totals["session_dist"]),
			totals["session_km"], totals["oneshot_km"],
			safeRatio(totals["oneshot_km"], totals["session_km"]))
	}
	return out, nil
}
