package metrics

import (
	"math"
	"math/rand"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/graph"
)

// ring returns a cycle graph with n vertices.
func ring(n int) *graph.Graph {
	edges := make([][2]int32, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	return graph.FromEdges(n, edges)
}

func unitPoints(n int) *geom.PointSet {
	ps := geom.NewPointSet(2, n)
	for i := 0; i < n; i++ {
		ps.Append(geom.Point{float64(i), 0}, 1)
	}
	return ps
}

func TestEdgeCutRing(t *testing.T) {
	g := ring(8)
	// Two contiguous halves: exactly 2 cut edges.
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	if cut := EdgeCut(g, part); cut != 2 {
		t.Errorf("cut = %d, want 2", cut)
	}
	// Alternating: every edge cut.
	alt := []int32{0, 1, 0, 1, 0, 1, 0, 1}
	if cut := EdgeCut(g, alt); cut != 8 {
		t.Errorf("alternating cut = %d, want 8", cut)
	}
	// Single block: no cut.
	one := make([]int32, 8)
	if cut := EdgeCut(g, one); cut != 0 {
		t.Errorf("single block cut = %d", cut)
	}
}

func TestExternalEdges(t *testing.T) {
	g := ring(8)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	ext := ExternalEdges(g, part, 2)
	if ext[0] != 2 || ext[1] != 2 {
		t.Errorf("ext = %v, want [2 2]", ext)
	}
}

func TestCommVolumesStar(t *testing.T) {
	// Star: center 0 adjacent to 1..5; leaves in distinct blocks.
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}
	g := graph.FromEdges(6, edges)
	part := []int32{0, 1, 1, 2, 2, 3}
	vols := CommVolumes(g, part, 4)
	// Center (block 0) sees blocks {1,2,3}: contributes 3 to block 0.
	if vols[0] != 3 {
		t.Errorf("vols[0] = %d, want 3", vols[0])
	}
	// Each leaf sees only block 0: 1 each; block 1 has two leaves -> 2.
	if vols[1] != 2 || vols[2] != 2 || vols[3] != 1 {
		t.Errorf("vols = %v", vols)
	}
}

func TestCommVolumeDistinctBlocksOnly(t *testing.T) {
	// Vertex with two neighbors in the same foreign block counts once.
	edges := [][2]int32{{0, 1}, {0, 2}}
	g := graph.FromEdges(3, edges)
	part := []int32{0, 1, 1}
	vols := CommVolumes(g, part, 2)
	if vols[0] != 1 {
		t.Errorf("vols[0] = %d, want 1 (distinct blocks only)", vols[0])
	}
	if vols[1] != 2 {
		t.Errorf("vols[1] = %d, want 2 (two boundary vertices)", vols[1])
	}
}

func TestImbalance(t *testing.T) {
	if imb := Imbalance([]float64{10, 10, 10}); imb != 0 {
		t.Errorf("balanced imbalance = %g", imb)
	}
	if imb := Imbalance([]float64{20, 10, 0}); math.Abs(imb-1.0) > 1e-12 {
		t.Errorf("imbalance = %g, want 1.0", imb)
	}
	if imb := Imbalance([]float64{0, 0}); imb != 0 {
		t.Errorf("zero weights imbalance = %g", imb)
	}
}

// TestImbalanceMatchesMaxWeightLoop: Imbalance, now the load ratio of
// partition.MaxLoadRatio under uniform targets, reads the bits of the
// max-weight-over-average loop it replaced on random weight vectors with
// empty blocks, k = 1 to 64, and on an all-zero vector. Dividing by one
// positive target is monotone, so the largest ratio is the ratio of the
// largest weight. On equal weights the rounded total can exceed k times
// the weight, and the loop then read a tiny negative value; Imbalance
// floors it at 0 and agrees with the loop everywhere else.
func TestImbalanceMatchesMaxWeightLoop(t *testing.T) {
	maxWeightLoop := func(weights []float64) float64 {
		total, maxW := 0.0, 0.0
		for _, w := range weights {
			total += w
			if w > maxW {
				maxW = w
			}
		}
		if total == 0 {
			return 0
		}
		return maxW/(total/float64(len(weights))) - 1
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20000; trial++ {
		w := make([]float64, 1+rng.Intn(64))
		if trial > 0 { // trial 0 is the all-zero vector
			for b := range w {
				if rng.Intn(10) > 0 { // one block in ten stays empty
					w[b] = rng.ExpFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
				}
			}
		}
		got, want := Imbalance(w), maxWeightLoop(w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d, k=%d: Imbalance %v (%x), max-weight loop %v (%x)", trial, len(w), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	negatives := 0
	for trial := 0; trial < 20000; trial++ {
		w := make([]float64, 1+rng.Intn(64))
		v := rng.ExpFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
		for b := range w {
			w[b] = v
		}
		got, loop := Imbalance(w), maxWeightLoop(w)
		if loop < 0 {
			negatives++
		}
		if want := max(0, loop); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("equal weights %v, k=%d: Imbalance %v, want max(0, %v)", v, len(w), got, loop)
		}
	}
	if negatives == 0 {
		t.Fatal("no equal-weight vector drove the loop below 0; the floor is untested")
	}
}

func TestBlockWeights(t *testing.T) {
	ps := unitPoints(4)
	ps.Weight = []float64{1, 2, 3, 4}
	w := BlockWeights(ps, []int32{0, 1, 0, 1}, 2)
	if w[0] != 4 || w[1] != 6 {
		t.Errorf("weights = %v", w)
	}
}

func TestBlockDiametersPath(t *testing.T) {
	// Path of 10; block 0 = first 4 (diameter 3), block 1 = rest (diameter 5).
	edges := make([][2]int32, 9)
	for i := 0; i < 9; i++ {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	g := graph.FromEdges(10, edges)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	diam := BlockDiameters(g, part, 2)
	if diam[0] != 3 || diam[1] != 5 {
		t.Errorf("diam = %v, want [3 5]", diam)
	}
}

func TestBlockDiametersDisconnected(t *testing.T) {
	// Path 0-1-2-3-4; block 0 = {0, 4} is disconnected within the block.
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	g := graph.FromEdges(5, edges)
	part := []int32{0, 1, 1, 1, 0}
	diam := BlockDiameters(g, part, 2)
	if diam[0] != -1 {
		t.Errorf("disconnected block diameter = %d, want -1", diam[0])
	}
	if diam[1] != 2 {
		t.Errorf("diam[1] = %d, want 2", diam[1])
	}
}

func TestBlockDiametersEmptyBlock(t *testing.T) {
	g := ring(4)
	part := []int32{0, 0, 0, 0}
	diam := BlockDiameters(g, part, 2) // block 1 empty
	if diam[1] != 0 {
		t.Errorf("empty block diameter = %d, want 0", diam[1])
	}
}

func TestHarmonicMeanDiameter(t *testing.T) {
	if h := HarmonicMeanDiameter([]int32{2, 2, 2}); math.Abs(h-2) > 1e-12 {
		t.Errorf("uniform harmonic mean = %g", h)
	}
	// Infinite diameters pull the mean *up* (contribute 0 reciprocal but
	// count): harmonic mean of {2, inf} = 2/(1/2) = 4.
	if h := HarmonicMeanDiameter([]int32{2, -1}); math.Abs(h-4) > 1e-12 {
		t.Errorf("with one infinite = %g, want 4", h)
	}
	if h := HarmonicMeanDiameter([]int32{0, 0}); h != 0 {
		t.Errorf("all empty = %g", h)
	}
	if h := HarmonicMeanDiameter([]int32{-1, -1}); h != 0 {
		t.Errorf("all infinite = %g", h)
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	g := ring(12)
	ps := unitPoints(12)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	r, err := Evaluate(g, ps, part, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 3 {
		t.Errorf("cut = %d, want 3", r.EdgeCut)
	}
	// Each block has 2 boundary vertices, each seeing 1 other block.
	if r.TotCommVol != 6 || r.MaxCommVol != 2 {
		t.Errorf("commVol = %d/%d, want 6/2", r.TotCommVol, r.MaxCommVol)
	}
	if r.Imbalance != 0 {
		t.Errorf("imbalance = %g", r.Imbalance)
	}
	if r.HarmDiam != 3 || r.MaxDiam != 3 {
		t.Errorf("diam = %g/%d, want 3/3", r.HarmDiam, r.MaxDiam)
	}
	if r.Disconnected != 0 || r.EmptyBlocks != 0 {
		t.Errorf("disconnected=%d empty=%d", r.Disconnected, r.EmptyBlocks)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestEvaluateFlagsProblems(t *testing.T) {
	g := ring(6)
	ps := unitPoints(6)
	// Splitting one ring block into two arcs disconnects both blocks
	// (each occupies two disjoint arcs); block 2 stays empty.
	part := []int32{0, 1, 1, 0, 1, 1}
	r, err := Evaluate(g, ps, part, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Disconnected != 2 {
		t.Errorf("Disconnected = %d, want 2", r.Disconnected)
	}
	if r.EmptyBlocks != 1 {
		t.Errorf("EmptyBlocks = %d, want 1", r.EmptyBlocks)
	}
}

func TestBlockAspectRatios(t *testing.T) {
	ps := geom.NewPointSet(2, 8)
	// Block 0: 4x1 strip; block 1: 2x2 square; block 2: empty; block 3: single point.
	pts := []geom.Point{{0, 0}, {4, 1}, {10, 10}, {12, 12}, {20, 20}}
	parts := []int32{0, 0, 1, 1, 3}
	for _, p := range pts {
		ps.Append(p, 1)
	}
	rs := BlockAspectRatios(ps, parts, 4)
	if math.Abs(rs[0]-4) > 1e-12 {
		t.Errorf("strip aspect = %g, want 4", rs[0])
	}
	if math.Abs(rs[1]-1) > 1e-12 {
		t.Errorf("square aspect = %g, want 1", rs[1])
	}
	if rs[2] != 0 {
		t.Errorf("empty block aspect = %g", rs[2])
	}
	if rs[3] != 1 {
		t.Errorf("single-point aspect = %g, want 1", rs[3])
	}
	if m := MeanAspectRatio(ps, parts, 4); math.Abs(m-2) > 1e-12 {
		t.Errorf("mean aspect = %g, want 2", m)
	}
}

func TestGeometricMean(t *testing.T) {
	if gm := GeometricMean([]float64{2, 8}); math.Abs(gm-4) > 1e-12 {
		t.Errorf("gm = %g, want 4", gm)
	}
	if gm := GeometricMean([]float64{5, 0, -1}); math.Abs(gm-5) > 1e-12 {
		t.Errorf("gm with zeros = %g, want 5", gm)
	}
	if gm := GeometricMean(nil); gm != 0 {
		t.Errorf("gm of empty = %g", gm)
	}
}

// Property: total comm volume >= edge cut / max-degree-ish relation does
// not hold in general, but comm volume is always <= 2*cut (each cut edge
// adds at most 1 to each side) and >= cut/(maxdeg).
func TestCommVolumeCutRelationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(50)
		edges := make([][2]int32, 3*n)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := graph.FromEdges(n, edges)
		k := 2 + rng.Intn(4)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(k))
		}
		cut := EdgeCut(g, part)
		vols := CommVolumes(g, part, k)
		var tot int64
		for _, v := range vols {
			tot += v
		}
		if tot > 2*cut {
			t.Fatalf("trial %d: totComm %d > 2*cut %d", trial, tot, cut)
		}
		if cut > 0 && tot == 0 {
			t.Fatalf("trial %d: cut %d but no comm volume", trial, cut)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	edges := make([][2]int32, 3*n)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	g := graph.FromEdges(n, edges)
	ps := unitPoints(n)
	part := make([]int32, n)
	for i := range part {
		part[i] = int32(rng.Intn(64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(g, ps, part, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvaluateRejectsInvalidPartitions(t *testing.T) {
	g := ring(6)
	ps := unitPoints(6)
	// Out-of-range block id used to panic with index out of range in
	// CommVolumes' stamp array; it must surface as an error instead.
	for _, part := range [][]int32{
		{0, 1, 2, 0, 1, 7},  // block id >= k
		{0, 1, 2, 0, 1, -3}, // negative block id
	} {
		if _, err := Evaluate(g, ps, part, 3); err == nil {
			t.Errorf("part %v accepted", part)
		}
	}
	if _, err := Evaluate(g, ps, []int32{0, 1, 2}, 3); err == nil {
		t.Error("short partition accepted")
	}
	if _, err := Evaluate(g, ps, make([]int32, 6), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMigrationVolumeAndDelta(t *testing.T) {
	ps := geom.NewPointSet(2, 6)
	for i := 0; i < 6; i++ {
		ps.Append(geom.Point{float64(i), 0}, float64(i+1)) // weights 1..6
	}
	prev := []int32{0, 0, 0, 1, 1, 1}
	next := []int32{0, 0, 1, 1, 1, 0} // points 2 (w=3) and 5 (w=6) move
	w, n, err := MigrationVolume(ps, prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if w != 9 || n != 2 {
		t.Fatalf("migration = (%g, %d), want (9, 2)", w, n)
	}
	if _, _, err := MigrationVolume(ps, prev[:3], next); err == nil {
		t.Error("short prev accepted")
	}
	if w, n, err := MigrationVolume(ps, prev, prev); err != nil || w != 0 || n != 0 {
		t.Errorf("self migration = (%g, %d, %v), want (0, 0, nil)", w, n, err)
	}
}
