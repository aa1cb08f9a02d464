package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"geographer/internal/geom"
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
// scale's point/rank counts, quick cells first (see quickCellsFirst).
func HighdimCells(sc Scale) []HighdimConfig {
	return quickCellsFirst(sc, sc.HighdimN > QuickScale().HighdimN, func(s Scale) []HighdimConfig {
		out := make([]HighdimConfig, 0, 3)
		for _, dim := range []int{8, 16, 64} {
			out = append(out, HighdimConfig{
				N: s.HighdimN, Dim: dim, M: s.HighdimK, K: s.HighdimK,
				P: s.HighdimP, Steps: s.HighdimSteps,
			})
		}
		return out
	})
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

// runHighdimCell runs one cell: one session chain whose cold partition
// goes through the generic kernels (SFC bootstrap is unavailable beyond
// geom.MaxDim — the core forces sampled random init), then Steps warm
// incremental repartitions under the travelling wave.
func runHighdimCell(cfg HighdimConfig) (HighdimCell, error) {
	cell := HighdimCell{HighdimConfig: cfg}
	ps := highdimPoints(cfg.N, cfg.Dim, cfg.M)
	base := append([]float64(nil), ps.Weight...)

	t0 := time.Now()
	ch, err := runChain(ps, cfg.K, cfg.P, seededConfig(), nil, cfg.Steps, func(t int) []float64 {
		return travellingWave(base, t-1, 0.41)
	})
	if err != nil {
		return cell, err
	}
	cell.IngestSec, cell.ColdSec, cell.StepSecMean = ch.IngestSec, ch.ColdSec, ch.stepSecMean()
	cell.Collectives, cell.CollectiveBytes, cell.Barriers = ch.World.Collectives, ch.World.CollectiveBytes, ch.World.Barriers
	cell.DistCalcs = ch.ColdInfo.DistCalcs + ch.warmDistCalcs()
	cell.ChainCut = chainCut(ch.Assign[cfg.Steps], cfg.M)
	cell.Imbalance = ch.Imbalance
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
