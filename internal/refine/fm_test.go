package refine

import (
	"math/rand"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/graph"
	"geographer/internal/mesh"
	"geographer/internal/metrics"
)

func gridGraph(r, c int) (*graph.Graph, *geom.PointSet) {
	var edges [][2]int32
	ps := geom.NewPointSet(2, r*c)
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			ps.Append(geom.Point{float64(j), float64(i)}, 1)
			if j+1 < c {
				edges = append(edges, [2]int32{id(i, j), id(i, j+1)})
			}
			if i+1 < r {
				edges = append(edges, [2]int32{id(i, j), id(i+1, j)})
			}
		}
	}
	return graph.FromEdges(r*c, edges), ps
}

func TestRefineImprovesNoisyPartition(t *testing.T) {
	g, ps := gridGraph(20, 20)
	// Vertical halves with 10% random noise.
	part := make([]int32, g.N)
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < g.N; v++ {
		part[v] = int32((v % 20) / 10)
		if rng.Float64() < 0.1 {
			part[v] = 1 - part[v]
		}
	}
	before := metrics.EdgeCut(g, part)
	res, err := Refine(g, ps, part, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.EdgeCut(g, part)
	if res.CutBefore != before || res.CutAfter != after {
		t.Errorf("reported cuts %d/%d vs measured %d/%d", res.CutBefore, res.CutAfter, before, after)
	}
	if after >= before {
		t.Errorf("no improvement: %d -> %d", before, after)
	}
	// Ideal vertical cut is 20; noisy start is far worse.
	if after > 2*20 {
		t.Errorf("refinement too weak: cut %d, ideal 20", after)
	}
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part, 2))
	if imb > 0.031 {
		t.Errorf("refinement broke balance: %.4f", imb)
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	m, err := mesh.GenDelaunayUniform2D(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		k := 2 + rng.Intn(6)
		part := make([]int32, m.N())
		for v := range part {
			part[v] = int32(v * k / m.N()) // index-contiguous: poor geometric quality
		}
		before := metrics.EdgeCut(m.G, part)
		res, err := Refine(m.G, m.Points, part, k, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.CutAfter > before {
			t.Errorf("trial %d: cut worsened %d -> %d", trial, before, res.CutAfter)
		}
		if err := validPartition(part, k); err != nil {
			t.Fatal(err)
		}
	}
}

func validPartition(part []int32, k int) error {
	for _, b := range part {
		if b < 0 || int(b) >= k {
			return errInvalid
		}
	}
	return nil
}

var errInvalid = &invalidErr{}

type invalidErr struct{}

func (*invalidErr) Error() string { return "invalid block id" }

func TestRefineRespectsBalanceOnWeighted(t *testing.T) {
	g, ps := gridGraph(10, 10)
	ps.Weight = make([]float64, 100)
	rng := rand.New(rand.NewSource(4))
	for i := range ps.Weight {
		ps.Weight[i] = 0.5 + 2*rng.Float64()
	}
	part := make([]int32, 100)
	for v := range part {
		part[v] = int32((v % 10) / 5)
	}
	// Rebalance start to ~even weights is not guaranteed; measure after.
	opts := DefaultOptions()
	opts.Epsilon = 0.10
	if _, err := Refine(g, ps, part, 2, opts); err != nil {
		t.Fatal(err)
	}
	w := metrics.BlockWeights(ps, part, 2)
	total := w[0] + w[1]
	for b, bw := range w {
		if bw > 1.101*total/2 {
			t.Errorf("block %d weight %.1f exceeds (1+ε)·avg %.1f", b, bw, 1.10*total/2)
		}
	}
}

func TestRefineErrors(t *testing.T) {
	g, ps := gridGraph(3, 3)
	if _, err := Refine(g, ps, []int32{0}, 2, DefaultOptions()); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := make([]int32, g.N)
	bad[0] = 9
	if _, err := Refine(g, ps, bad, 2, DefaultOptions()); err == nil {
		t.Error("invalid block accepted")
	}
	// One point more than the graph has vertices.
	ps.Append(ps.At(0), 1)
	if _, err := Refine(g, ps, make([]int32, g.N), 2, DefaultOptions()); err == nil {
		t.Error("point count mismatch accepted")
	}
}

func TestRefineAlreadyOptimal(t *testing.T) {
	g, ps := gridGraph(8, 8)
	part := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		part[v] = int32((v % 8) / 4) // clean vertical halves: cut 8
	}
	res, err := Refine(g, ps, part, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.CutAfter != res.CutBefore {
		t.Errorf("optimal partition changed: %d -> %d", res.CutBefore, res.CutAfter)
	}
}

func BenchmarkRefine(b *testing.B) {
	m, err := mesh.GenDelaunayUniform2D(20000, 5)
	if err != nil {
		b.Fatal(err)
	}
	base := make([]int32, m.N())
	for v := range base {
		base[v] = int32(v % 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := append([]int32(nil), base...)
		if _, err := Refine(m.G, m.Points, part, 16, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
