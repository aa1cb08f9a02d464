package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// HighdimConfig is one cell of the feature-space grid: a Gaussian-mixture
// clustering workload in Dim dimensions (beyond geom.MaxDim — the
// generic-dimension kernel path end to end: cold random init, warm
// incremental steps, all through the strided-column kernels).
type HighdimConfig struct {
	N     int `json:"n"`
	Dim   int `json:"dim"`
	M     int `json:"m"` // mixture components
	K     int `json:"k"`
	P     int `json:"p"`
	Steps int `json:"steps"`
}

// HighdimCell is the measurement of one cell. The fields highdimReport
// lists as strict are exact functions of the cell config and must
// reproduce bit-for-bit run to run; wall time and RSS are
// machine-dependent.
type HighdimCell struct {
	HighdimConfig

	WallSec     float64 `json:"wall_sec"`
	IngestSec   float64 `json:"ingest_sec"`
	ColdSec     float64 `json:"cold_sec"` // cold partition (random init, generic kernels)
	StepSecMean float64 `json:"step_sec_mean"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`

	Collectives     int64   `json:"collectives"`
	CollectiveBytes int64   `json:"collective_bytes"`
	Barriers        int64   `json:"barriers"`
	DistCalcs       int64   `json:"dist_calcs"` // cold + all warm steps
	ChainCut        int64   `json:"chain_cut"`  // cut over same-component chain edges, final step
	Imbalance       float64 `json:"imbalance"`  // after the final step
}

// highdimReport is the BENCH_highdim.json header (see Report).
var highdimReport = Report[HighdimCell]{
	Schema: "geographer-highdim/v1",
	Key:    []string{"n", "dim", "m", "k", "p", "steps"},
	Strict: []string{"collectives", "collective_bytes", "barriers", "dist_calcs", "chain_cut", "imbalance"},
}

// HighdimCells returns the grid for a scale: d ∈ {8, 16, 64} over the
// scale's point/rank counts, quick cells first (same convention as the
// soak — the committed default-scale BENCH_highdim.json then contains
// the quick cells CI's smoke runs diff against).
func HighdimCells(sc Scale) []HighdimConfig {
	cellsFor := func(s Scale) []HighdimConfig {
		out := make([]HighdimConfig, 0, 3)
		for _, dim := range []int{8, 16, 64} {
			out = append(out, HighdimConfig{
				N: s.HighdimN, Dim: dim, M: s.HighdimK, K: s.HighdimK,
				P: s.HighdimP, Steps: s.HighdimSteps,
			})
		}
		return out
	}
	cells := cellsFor(sc)
	if sc.HighdimN > QuickScale().HighdimN {
		cells = append(cellsFor(QuickScale()), cells...)
	}
	return cells
}

// highdimPoints generates the workload: an n-point Gaussian mixture of m
// components in dim dimensions (component centers uniform in [0, 10]^dim,
// unit noise), components assigned round-robin so the chain graph below
// is well defined. Deterministic in (n, dim, m) alone.
func highdimPoints(n, dim, m int) *geom.PointSet {
	rng := rand.New(rand.NewSource(int64(n)*131 + int64(dim)*17 + int64(m)))
	centers := make([]float64, m*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 10
	}
	ps := &geom.PointSet{Dim: dim, Coords: make([]float64, n*dim), Weight: make([]float64, n)}
	for i := 0; i < n; i++ {
		c := centers[(i%m)*dim : (i%m+1)*dim]
		for d := 0; d < dim; d++ {
			ps.Coords[i*dim+d] = c[d] + rng.NormFloat64()
		}
	}
	for i := range ps.Weight {
		ps.Weight[i] = 0.5 + rng.Float64()
	}
	return ps
}

// highdimWeights is the per-step load wave (travelling over the point
// index, like the soak's).
func highdimWeights(base []float64, step int) []float64 {
	w := make([]float64, len(base))
	for i := range w {
		w[i] = base[i] * (1 + 0.3*math.Sin(float64(i)*0.41+float64(step)))
	}
	return w
}

// chainCut counts the cut edges of the mixture chain graph: point i is
// connected to i+m, the next point of its own component, so a clustering
// that keeps mixture components together has a small cut. The analog of
// the mesh experiments' edge cut for a workload with no mesh.
func chainCut(assign []int32, m int) int64 {
	var cut int64
	for i := 0; i+m < len(assign); i++ {
		if assign[i] != assign[i+m] {
			cut++
		}
	}
	return cut
}

// runHighdimCell runs one cell: session ingest, cold partition through
// the generic kernels (SFC bootstrap is unavailable beyond geom.MaxDim —
// the core forces sampled random init), then Steps warm incremental
// repartitions under the load wave.
func runHighdimCell(cfg HighdimConfig) (HighdimCell, error) {
	cell := HighdimCell{HighdimConfig: cfg}
	ps := highdimPoints(cfg.N, cfg.Dim, cfg.M)
	base := append([]float64(nil), ps.Weight...)

	ccfg := core.DefaultConfig()
	ccfg.Seed = 1
	w := mpi.NewWorld(cfg.P)
	t0 := time.Now()
	sess, err := repart.NewSession(w, ps, cfg.K, ccfg)
	if err != nil {
		return cell, err
	}
	defer sess.Close()
	cell.IngestSec = sess.IngestSeconds()

	tCold := time.Now()
	part, err := sess.Partition()
	if err != nil {
		return cell, fmt.Errorf("cold partition: %w", err)
	}
	cell.ColdSec = time.Since(tCold).Seconds()
	cell.DistCalcs += sess.LastInfo().DistCalcs

	assign := part.Assign
	stepStart := time.Now()
	for s := 0; s < cfg.Steps; s++ {
		if err := sess.UpdateWeights(highdimWeights(base, s)); err != nil {
			return cell, err
		}
		pt, st, err := sess.Repartition()
		if err != nil {
			return cell, fmt.Errorf("step %d: %w", s, err)
		}
		cell.DistCalcs += st.DistCalcs
		assign = pt.Assign
	}
	cell.StepSecMean = time.Since(stepStart).Seconds() / float64(cfg.Steps)

	for _, st := range w.Stats() {
		cell.Collectives += st.Collectives
		cell.CollectiveBytes += st.CollectiveBytes
		cell.Barriers += st.Barriers
	}
	cell.ChainCut = chainCut(assign, cfg.M)
	wt := highdimWeights(base, cfg.Steps-1)
	psW := &geom.PointSet{Dim: ps.Dim, Coords: ps.Coords, Weight: wt}
	cell.Imbalance = metrics.Imbalance(metrics.BlockWeights(psW, assign, cfg.K))
	cell.WallSec = time.Since(t0).Seconds()
	cell.PeakRSSMB = peakRSSMB()
	return cell, nil
}

// Highdim runs the feature-space grid (DESIGN.md, "Generic-dimension
// invariants"): balanced clustering of Gaussian mixtures at d ∈ {8, 16,
// 64}, recording chain cut, imbalance, distance evaluations, collective
// counts, and per-step wall time. The report is written as
// BENCH_highdim.json by cmd/runexp (-bench) and diffed against the
// committed snapshot by tools/benchdiff.
func Highdim(w io.Writer, sc Scale) (Report[HighdimCell], error) {
	rep := highdimReport
	fmt.Fprintf(w, "%-8s %4s %4s %4s %6s | %8s %8s %8s | %11s %10s %9s %9s\n",
		"n", "dim", "k", "p", "steps", "cold_s", "step_s", "wall_s", "dist_calcs", "chain_cut", "collect", "imbal")
	for _, cfg := range HighdimCells(sc) {
		cell, err := runHighdimCell(cfg)
		if err != nil {
			return Report[HighdimCell]{}, fmt.Errorf("highdim n=%d dim=%d k=%d p=%d: %w", cfg.N, cfg.Dim, cfg.K, cfg.P, err)
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Fprintf(w, "%-8d %4d %4d %4d %6d | %8.3f %8.3f %8.2f | %11d %10d %9d %9.4f\n",
			cell.N, cell.Dim, cell.K, cell.P, cell.Steps, cell.ColdSec, cell.StepSecMean, cell.WallSec,
			cell.DistCalcs, cell.ChainCut, cell.Collectives, cell.Imbalance)
	}
	return rep, nil
}
