package spmv

import (
	"math"
	"testing"

	"geographer/internal/graph"
	"geographer/internal/mesh"
)

func pathGraph(n int) *graph.Graph {
	edges := make([][2]int32, n-1)
	for i := range edges {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	return graph.FromEdges(n, edges)
}

func TestSpMVCorrectness(t *testing.T) {
	// One iteration of A·1 on a path equals the degree vector; checksum =
	// Σ deg = 2m. Verify partitioned SpMV agrees for several k.
	g := pathGraph(50)
	want := float64(2 * g.M())
	for _, k := range []int{1, 2, 5} {
		part := make([]int32, g.N)
		for v := range part {
			part[v] = int32(v * k / g.N)
		}
		res, err := Benchmark(g, part, k, 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if math.Abs(res.Checksum-want) > 1e-9 {
			t.Errorf("k=%d: checksum %g, want %g", k, res.Checksum, want)
		}
	}
}

// TestBenchmarkRejectsKAboveN: every block is a simulated rank, so a k
// above the vertex count used to add idle ranks, each allocating its
// O(k) plan slices (k = n + 1 doubled the modeled time of a 2-vertex
// path); k outside [1, n] is an error.
func TestBenchmarkRejectsKAboveN(t *testing.T) {
	g := pathGraph(2)
	part := []int32{0, 1}
	if _, err := Benchmark(g, part, g.N, 1); err != nil {
		t.Fatalf("k = n rejected: %v", err)
	}
	if res, err := Benchmark(g, part, g.N+1, 1); err == nil {
		t.Errorf("k = n+1 accepted: modeled %g s", res.ModeledCommSeconds)
	}
}

func TestSpMVChecksumIndependentOfK(t *testing.T) {
	// Multiple damped iterations must give identical results regardless of
	// the partition (the computation is partition-invariant).
	m, err := mesh.GenDelaunayUniform2D(800, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ref float64
	for i, k := range []int{1, 3, 8} {
		part := make([]int32, m.N())
		for v := range part {
			part[v] = int32(v % k)
		}
		res, err := Benchmark(m.G, part, k, 5)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Checksum
		} else if math.Abs(res.Checksum-ref) > 1e-6*math.Abs(ref) {
			t.Errorf("k=%d: checksum %g != reference %g", k, res.Checksum, ref)
		}
	}
}

func TestHaloVolumesPath(t *testing.T) {
	// Path split in two halves: each half needs exactly 1 foreign value.
	g := pathGraph(10)
	part := []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	tot, max := HaloVolumes(g, part, 2)
	if tot != 2 || max != 1 {
		t.Errorf("tot=%d max=%d, want 2/1", tot, max)
	}
}

func TestHaloVolumesMatchCommVolume(t *testing.T) {
	// HaloVolumes must equal the metrics-package communication volume by
	// construction (same definition, §2).
	m, err := mesh.GenRGG2D(1200, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	k := 6
	part := make([]int32, m.N())
	for v := range part {
		part[v] = int32(v * k / m.N())
	}
	tot, _ := HaloVolumes(m.G, part, k)
	res, err := Benchmark(m.G, part, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalHaloValues != tot {
		t.Errorf("result halo %d != direct computation %d", res.TotalHaloValues, tot)
	}
	if res.ModeledCommSeconds <= 0 || res.CommSeconds < 0 {
		t.Errorf("times: %+v", res)
	}
}

func TestBetterPartitionLessComm(t *testing.T) {
	// A contiguous split of a path has far less halo than a round-robin
	// split; the benchmark must reflect that in volumes and modeled time.
	g := pathGraph(400)
	contig := make([]int32, g.N)
	rr := make([]int32, g.N)
	for v := range contig {
		contig[v] = int32(v * 4 / g.N)
		rr[v] = int32(v % 4)
	}
	good, err := Benchmark(g, contig, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Benchmark(g, rr, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if good.TotalHaloValues >= bad.TotalHaloValues {
		t.Errorf("contiguous halo %d >= round-robin %d", good.TotalHaloValues, bad.TotalHaloValues)
	}
	if good.ModeledCommSeconds >= bad.ModeledCommSeconds {
		t.Errorf("contiguous modeled %g >= round-robin %g", good.ModeledCommSeconds, bad.ModeledCommSeconds)
	}
}

func TestBenchmarkErrors(t *testing.T) {
	g := pathGraph(4)
	if _, err := Benchmark(g, []int32{0, 0}, 1, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Benchmark(g, []int32{0, 0, 9, 0}, 2, 1); err == nil {
		t.Error("invalid block accepted")
	}
}

func BenchmarkSpMV64Blocks(b *testing.B) {
	m, err := mesh.GenDelaunayUniform2D(20000, 42)
	if err != nil {
		b.Fatal(err)
	}
	part := make([]int32, m.N())
	for v := range part {
		part[v] = int32(v * 64 / m.N())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Benchmark(m.G, part, 64, 5); err != nil {
			b.Fatal(err)
		}
	}
}
