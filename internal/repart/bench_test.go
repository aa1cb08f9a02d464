package repart

import (
	"math"
	"testing"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// BenchmarkRepartition measures one warm-start repartitioning step on
// the facade workload shape (refined 2D mesh, k=16, p=4) under a ±40%
// weight perturbation, next to BenchmarkScratchRepartition for the
// from-scratch comparison the warm start is meant to beat.
func BenchmarkRepartition(b *testing.B) {
	m, err := mesh.GenRefinedTri(20000, 42)
	if err != nil {
		b.Fatal(err)
	}
	const k, p = 16, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	prev, err := partition.Run(mpi.NewWorld(p), m.Points, k, core.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	ps := m.Points.Clone()
	ps.Weight = make([]float64, ps.Len())
	for i := range ps.Weight {
		x := ps.Coords[i*ps.Dim]
		ps.Weight[i] = 1 + 0.4*math.Sin(0.08*x+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Repartition(mpi.NewWorld(p), ps, prev.Assign, k, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRepartitionIncremental measures one warm streaming
// step on a long-lived Session: bounds carried across steps, interior
// points skipping on them in the first pass. Reported boundary_frac is the mean
// fraction of points per step whose corrected bounds crossed; dist/op
// the mean distance evaluations per step. Compare BenchmarkRepartition,
// which starts every step from reset bounds and pays scatter + ingest,
// and BenchmarkScratchRepartition, which pays the full cold pipeline.
func BenchmarkSessionRepartitionIncremental(b *testing.B) {
	m, err := mesh.GenRefinedTri(20000, 42)
	if err != nil {
		b.Fatal(err)
	}
	const k, p = 16, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	weightsAt := func(t int) []float64 {
		w := make([]float64, m.Points.Len())
		for i := range w {
			x := m.Points.Coords[i*m.Points.Dim]
			w[i] = 1 + 0.4*math.Sin(0.08*x+0.9*float64(t))
		}
		return w
	}
	sess, err := NewSession(mpi.NewWorld(p), &geom.PointSet{
		Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: weightsAt(0),
	}, k, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Partition(); err != nil {
		b.Fatal(err)
	}
	// Two alternating load states keep every iteration a real
	// (deterministic) warm step instead of a converged no-op; a warm-up
	// step lets the incremental path start from carried bounds.
	wA, wB := weightsAt(1), weightsAt(2)
	if err := sess.UpdateWeights(wA); err != nil {
		b.Fatal(err)
	}
	if _, _, err := sess.Repartition(); err != nil {
		b.Fatal(err)
	}
	var boundary float64
	var dist int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wB
		if i%2 == 1 {
			w = wA
		}
		if err := sess.UpdateWeights(w); err != nil {
			b.Fatal(err)
		}
		_, st, err := sess.Repartition()
		if err != nil {
			b.Fatal(err)
		}
		boundary += st.Info.BoundaryFrac
		dist += st.Info.DistCalcs
	}
	b.ReportMetric(boundary/float64(b.N), "boundary_frac")
	b.ReportMetric(float64(dist)/float64(b.N), "dist/op")
}

// BenchmarkScratchRepartition is the from-scratch baseline for
// BenchmarkRepartition: a full Partition (SFC keys + sort +
// redistribution + cold k-means) on the identical perturbed input.
func BenchmarkScratchRepartition(b *testing.B) {
	m, err := mesh.GenRefinedTri(20000, 42)
	if err != nil {
		b.Fatal(err)
	}
	const k, p = 16, 4
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps := m.Points.Clone()
	ps.Weight = make([]float64, ps.Len())
	for i := range ps.Weight {
		x := ps.Coords[i*ps.Dim]
		ps.Weight[i] = 1 + 0.4*math.Sin(0.08*x+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Run(mpi.NewWorld(p), ps, k, core.New(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}
