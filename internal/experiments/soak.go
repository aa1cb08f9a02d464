package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
)

// SoakConfig is one cell of the soak grid: a streaming repartitioning
// session of Steps warm steps at paper-scale point and rank counts.
type SoakConfig struct {
	N     int `json:"n"`
	Dim   int `json:"dim"`
	K     int `json:"k"`
	P     int `json:"p"`
	Steps int `json:"steps"`
}

// SoakCell is the measurement of one soak cell. The fields soakReport
// lists as strict are exact functions of the cell config and must
// reproduce bit-for-bit run to run; wall time, RSS, and allocation
// counters are machine-dependent.
type SoakCell struct {
	SoakConfig

	WallSec     float64 `json:"wall_sec"`   // whole cell: ingest + all steps
	IngestSec   float64 `json:"ingest_sec"` // NewSession (scatter + resident build)
	StepSecMean float64 `json:"step_sec_mean"`

	PeakRSSMB       float64 `json:"peak_rss_mb"`       // process VmHWM after the cell (cumulative)
	MallocsPerStep  float64 `json:"mallocs_per_step"`  // runtime.MemStats Mallocs delta / steps
	AllocMBPerStep  float64 `json:"alloc_mb_per_step"` // runtime.MemStats TotalAlloc delta / steps
	Collectives     int64   `json:"collectives"`       // summed over ranks, all steps
	CollectiveBytes int64   `json:"collective_bytes"`
	Barriers        int64   `json:"barriers"`
	DistCalcs       int64   `json:"dist_calcs"`       // summed over steps
	ModeledCommSec  float64 `json:"modeled_comm_sec"` // max over ranks, α-β model
	Imbalance       float64 `json:"imbalance"`        // after the final step
}

// soakReport is the BENCH_soak.json header (see Report).
var soakReport = Report[SoakCell]{
	Schema: "geographer-soak/v1",
	Key:    []string{"n", "dim", "k", "p", "steps"},
	Strict: []string{"collectives", "collective_bytes", "barriers", "dist_calcs", "modeled_comm_sec", "imbalance"},
}

// SoakCells returns the grid for a scale, quick cells first (see
// quickCellsFirst), then the scale's cells: k up to SoakMaxK, p up to
// SoakMaxP, n = SoakN.
func SoakCells(sc Scale) []SoakConfig {
	return quickCellsFirst(sc, sc.SoakN > QuickScale().SoakN, func(s Scale) []SoakConfig {
		return []SoakConfig{
			{N: s.SoakN, Dim: 3, K: s.SoakK, P: s.SoakMaxP / 4, Steps: s.SoakSteps},
			{N: s.SoakN, Dim: 3, K: s.SoakK, P: s.SoakMaxP, Steps: s.SoakSteps},
			{N: s.SoakN, Dim: 3, K: s.SoakMaxK, P: s.SoakMaxP / 4, Steps: s.SoakSteps},
		}
	})
}

// soakPoints generates the soak workload: n uniform points in a unit
// cube (dim 3 exercises all coordinate columns) with unit-ish weights.
// Deterministic in n alone so every run and every scale reproduces the
// same cells bit-for-bit.
func soakPoints(n, dim int) *geom.PointSet {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(dim)))
	ps := &geom.PointSet{Dim: dim, Coords: make([]float64, n*dim), Weight: make([]float64, n)}
	for i := range ps.Coords {
		ps.Coords[i] = rng.Float64()
	}
	for i := range ps.Weight {
		ps.Weight[i] = 0.5 + rng.Float64()
	}
	return ps
}

// runSoakCell runs one cell: a spatial-slab seed partition, then one
// session chain of Steps warm steps under the travelling wave.
func runSoakCell(cfg SoakConfig) (SoakCell, error) {
	cell := SoakCell{SoakConfig: cfg}
	ps := soakPoints(cfg.N, cfg.Dim)
	base := append([]float64(nil), ps.Weight...)

	// Spatial-slab seed partition (block = x-slab): recovered centers
	// spread across the domain, so the warm start converges like a real
	// repartition instead of degenerating into badly-seeded cold
	// k-means (index stripes of uniform points all have centroids at
	// the cube center), without paying the cold SFC-sort pipeline the
	// soak is not measuring.
	prev := make([]int32, cfg.N)
	for i := range prev {
		b := int32(ps.Coords[i*cfg.Dim] * float64(cfg.K))
		if b >= int32(cfg.K) {
			b = int32(cfg.K) - 1
		}
		prev[i] = b
	}

	t0 := time.Now()
	ch, err := runChain(ps, cfg.K, cfg.P, core.DefaultConfig(), prev, cfg.Steps, func(t int) []float64 {
		return travellingWave(base, t-1, 0.37)
	})
	if err != nil {
		return cell, err
	}
	steps := float64(cfg.Steps)
	cell.IngestSec = ch.IngestSec
	cell.StepSecMean = ch.stepSecMean()
	cell.MallocsPerStep = float64(ch.Mallocs) / steps
	cell.AllocMBPerStep = float64(ch.AllocBytes) / steps / (1 << 20)
	cell.Collectives, cell.CollectiveBytes, cell.Barriers = ch.World.Collectives, ch.World.CollectiveBytes, ch.World.Barriers
	cell.ModeledCommSec = ch.World.ModeledCommSec
	cell.DistCalcs = ch.warmDistCalcs()
	cell.Imbalance = ch.Imbalance
	cell.WallSec = time.Since(t0).Seconds()
	cell.PeakRSSMB = peakRSSMB()
	return cell, nil
}

// Soak runs the scaling soak (DESIGN.md, "Scaling invariants"): long
// streaming sessions at up to millions of points and thousands of
// simulated ranks, recording wall time, peak RSS, per-step allocation
// deltas, collective counts and bytes, and α-β modeled communication
// time per cell. The report is written as BENCH_soak.json by cmd/runexp
// (-bench) and diffed against the committed snapshot by
// tools/benchdiff.
func Soak(w io.Writer, sc Scale) (Report[SoakCell], error) {
	rep := soakReport
	fmt.Fprintf(w, "%-9s %5s %5s %6s | %9s %9s %11s | %12s %14s %10s %9s\n",
		"n", "k", "p", "steps", "wall_s", "step_s", "peak_rss_mb", "collectives", "coll_bytes", "comm_s", "imbal")
	for _, cfg := range SoakCells(sc) {
		cell, err := runSoakCell(cfg)
		if err != nil {
			return Report[SoakCell]{}, fmt.Errorf("soak n=%d k=%d p=%d: %w", cfg.N, cfg.K, cfg.P, err)
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Fprintf(w, "%-9d %5d %5d %6d | %9.2f %9.2f %11.0f | %12d %14d %10.3f %9.4f\n",
			cell.N, cell.K, cell.P, cell.Steps, cell.WallSec, cell.StepSecMean, cell.PeakRSSMB,
			cell.Collectives, cell.CollectiveBytes, cell.ModeledCommSec, cell.Imbalance)
	}
	return rep, nil
}

// peakRSSMB reads the process peak resident set size (VmHWM) from
// /proc/self/status, in MiB. Returns 0 where unavailable (non-Linux).
// The value is a process-lifetime high-water mark, so within one run it
// is non-decreasing across cells — cells are ordered smallest first so
// the early readings are not masked by the large ones.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
