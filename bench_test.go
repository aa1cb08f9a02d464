package geographer

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5), at reduced QuickScale sizes so `go test
// -bench=.` finishes in minutes. The full-scale runs are driven by
// cmd/runexp (docs/cli.md).

import (
	"io"
	"testing"

	"geographer/internal/experiments"
)

// BenchmarkTable1LargeGraphs regenerates Table 1 (large graphs,
// k = p = 1024 in the paper, scaled down here).
func BenchmarkTable1LargeGraphs(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2MediumGraphs regenerates Table 2 (small/medium graphs,
// k = p = 64 in the paper).
func BenchmarkTable2MediumGraphs(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Partitioners regenerates Figure 1 (visual comparison of
// the five tools on a hugetric-style mesh, k = 8).
func BenchmarkFig1Partitioners(b *testing.B) {
	sc := experiments.QuickScale()
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(dir, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Classes regenerates Figure 2 (aggregated metric ratios per
// instance class).
func BenchmarkFig2Classes(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aWeakScaling regenerates Figure 3a (weak scaling over the
// Delaunay series with p = k doubling).
func BenchmarkFig3aWeakScaling(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3a(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3bStrongScaling regenerates Figure 3b (strong scaling on
// the largest Delaunay graph).
func BenchmarkFig3bStrongScaling(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3b(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4RunningTimes regenerates Figure 4 (running time of every
// tool on every registry graph at fixed points-per-block).
func BenchmarkFig4RunningTimes(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponents regenerates the §5.3.2 phase breakdown of
// Geographer's running time.
func BenchmarkComponents(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Components(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation measures the §4 design choices (Hamerly bounds, bbox
// pruning, erosion, sampled init, SFC bootstrap) individually.
func BenchmarkAblation(b *testing.B) {
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionFacade measures the end-to-end facade on a mid-size
// instance (the README quick-start path).
func BenchmarkPartitionFacade(b *testing.B) {
	m, err := GenerateMesh(MeshRefined, 20000, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(m.Coords, m.Dim, m.Weights, Options{K: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
