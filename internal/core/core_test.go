package core

import (
	"math"
	"math/rand"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

func uniformPoints(n, dim int, seed int64) *geom.PointSet {
	rng := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSet(dim, n)
	for i := 0; i < n; i++ {
		var p geom.Point
		for d := 0; d < dim; d++ {
			p[d] = rng.Float64()
		}
		ps.Append(p, 1)
	}
	return ps
}

func runPartition(t *testing.T, ps *geom.PointSet, k, p int, cfg Config) (partition.P, *BalancedKMeans) {
	t.Helper()
	bkm := New(cfg)
	w := mpi.NewWorld(p)
	part, err := partition.Run(w, ps, k, bkm)
	if err != nil {
		t.Fatalf("k=%d p=%d: %v", k, p, err)
	}
	if err := part.Validate(false); err != nil {
		t.Fatalf("k=%d p=%d: %v", k, p, err)
	}
	return part, bkm
}

func TestBalancedPartitionUniform(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, k := range []int{4, 16} {
			for _, p := range []int{1, 2, 4} {
				ps := uniformPoints(4000, dim, 11)
				part, bkm := runPartition(t, ps, k, p, DefaultConfig())
				imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, k))
				if imb > 0.031 {
					t.Errorf("dim=%d k=%d p=%d: imbalance %.4f > ε", dim, k, p, imb)
				}
				info := bkm.LastInfo()
				if !info.Balanced {
					t.Errorf("dim=%d k=%d p=%d: not balanced (imb %.4f)", dim, k, p, info.Imbalance)
				}
				if info.Iterations < 1 {
					t.Errorf("no iterations recorded")
				}
			}
		}
	}
}

func TestWeightedBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := geom.NewPointSet(2, 5000)
	ps.Weight = make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 0.2+5*rng.Float64())
	}
	part, _ := runPartition(t, ps, 8, 3, DefaultConfig())
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 8))
	if imb > 0.031 {
		t.Errorf("weighted imbalance %.4f", imb)
	}
}

func TestHeterogeneousTargets(t *testing.T) {
	// Footnote 1: non-uniform block sizes.
	cfg := DefaultConfig()
	cfg.TargetFractions = []float64{0.5, 0.25, 0.125, 0.125}
	ps := uniformPoints(4000, 2, 17)
	part, _ := runPartition(t, ps, 4, 2, cfg)
	w := metrics.BlockWeights(ps, part.Assign, 4)
	total := w[0] + w[1] + w[2] + w[3]
	for b, frac := range cfg.TargetFractions {
		got := w[b] / total
		if math.Abs(got-frac) > frac*0.05 {
			t.Errorf("block %d holds %.3f of weight, want %.3f±5%%", b, got, frac)
		}
	}
}

func TestTargetFractionsLengthError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetFractions = []float64{0.5, 0.5}
	bkm := New(cfg)
	w := mpi.NewWorld(1)
	_, err := partition.Run(w, uniformPoints(100, 2, 1), 4, bkm)
	if err == nil {
		t.Fatal("expected error for mismatched fractions")
	}
}

// The geometric optimizations must be pure accelerations: turning them
// off must give the exact same partition.
func TestOptimizationsPreserveResult(t *testing.T) {
	ps := uniformPoints(3000, 2, 23)
	base := DefaultConfig()

	ref, refB := runPartition(t, ps, 12, 2, base)
	refInfo := refB.LastInfo()

	noBounds := base
	noBounds.Bounds = BoundsNone
	gotH, _ := runPartition(t, ps, 12, 2, noBounds)
	for i := range ref.Assign {
		if ref.Assign[i] != gotH.Assign[i] {
			t.Fatalf("Hamerly bounds changed the result at point %d", i)
		}
	}

	elkan := base
	elkan.Bounds = BoundsElkan
	gotE, elkanB := runPartition(t, ps, 12, 2, elkan)
	for i := range ref.Assign {
		if ref.Assign[i] != gotE.Assign[i] {
			t.Fatalf("Elkan bounds changed the result at point %d", i)
		}
	}

	noBBox := base
	noBBox.BBoxPruning = false
	gotB, _ := runPartition(t, ps, 12, 2, noBBox)
	for i := range ref.Assign {
		if ref.Assign[i] != gotB.Assign[i] {
			t.Fatalf("BBox pruning changed the result at point %d", i)
		}
	}

	// And they must actually save distance computations.
	if refInfo.HamerlySkips == 0 {
		t.Error("Hamerly bounds never skipped a point")
	}
	noneCfg := base
	noneCfg.Bounds = BoundsNone
	noneCfg.BBoxPruning = false
	_, noneB := runPartition(t, ps, 12, 2, noneCfg)
	if refInfo.DistCalcs >= noneB.LastInfo().DistCalcs {
		t.Errorf("optimizations did not reduce distance calcs: %d vs %d",
			refInfo.DistCalcs, noneB.LastInfo().DistCalcs)
	}
	if elkanB.LastInfo().DistCalcs >= noneB.LastInfo().DistCalcs {
		t.Errorf("Elkan bounds did not reduce distance calcs: %d vs %d",
			elkanB.LastInfo().DistCalcs, noneB.LastInfo().DistCalcs)
	}
}

// warmCentersFrom recovers warm-start seed centers (weighted block
// means) from an assignment — the test-local equivalent of
// repart.RecoverCenters for non-degenerate partitions.
func warmCentersFrom(ps *geom.PointSet, assign []int32, k int) []float64 {
	sum := make([]float64, k*ps.Dim)
	wsum := make([]float64, k)
	for i := 0; i < ps.Len(); i++ {
		b := int(assign[i])
		x := ps.Coords[i*ps.Dim : (i+1)*ps.Dim]
		w := ps.W(i)
		for d := 0; d < ps.Dim; d++ {
			sum[b*ps.Dim+d] += w * x[d]
		}
		wsum[b] += w
	}
	for b := 0; b < k; b++ {
		for d := 0; d < ps.Dim; d++ {
			sum[b*ps.Dim+d] /= wsum[b]
		}
	}
	return sum
}

func TestHamerlySkipRate(t *testing.T) {
	// Paper §4.3: "the innermost loop can be skipped in about 80% of the
	// cases". SkipRate is the per-run measurement of exactly that —
	// bound-resolved point visits over all visits.
	ps := uniformPoints(8000, 2, 31)
	part, bkm := runPartition(t, ps, 16, 2, DefaultConfig())
	info := bkm.LastInfo()
	if info.Visits <= 0 {
		t.Fatalf("no point visits recorded: %+v", info)
	}
	if rate := info.SkipRate(); rate < 0.75 {
		t.Errorf("cold skip rate %.3f below the paper's ~80%% (skips %d / visits %d)",
			rate, info.HamerlySkips, info.Visits)
	}

	// Cross-step carried bounds: two warm runs on one Resident. The
	// first must reset (nothing to carry), the second must take the
	// incremental fast path, touch only a small boundary fraction, cut
	// the distance evaluations at least 2x, and skip even more visits.
	const k, p = 16, 2
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}
	prev := part.Assign
	step := func() Info {
		t.Helper()
		cfg := DefaultConfig()
		centers := warmCentersFrom(ps, prev, k)
		wb := New(cfg)
		out := make([]int32, ps.Len())
		if err := w.Run(func(c *mpi.Comm) {
			ids, blocks, err := wb.PartitionResident(c, res[c.Rank()], k, centers)
			if err != nil {
				panic(err)
			}
			for i, id := range ids {
				out[id] = blocks[i]
			}
		}); err != nil {
			t.Fatal(err)
		}
		prev = out
		return wb.LastInfo()
	}
	first := step()
	if first.CarriedBounds {
		t.Error("first warm run on a fresh Resident reports carried bounds")
	}
	second := step()
	if !second.CarriedBounds {
		t.Fatalf("second warm run did not carry bounds: %+v", second)
	}
	if second.BoundaryFrac <= 0 || second.BoundaryFrac > 0.5 {
		t.Errorf("carried boundary fraction %.3f outside (0, 0.5]", second.BoundaryFrac)
	}
	if second.DistCalcs*2 > first.DistCalcs {
		t.Errorf("carried bounds cut dist calcs only %d -> %d, want >= 2x", first.DistCalcs, second.DistCalcs)
	}
	if rate := second.SkipRate(); rate < 0.8 {
		t.Errorf("carried skip rate %.3f below the paper's ~80%%", rate)
	}
}

func TestDeterminism(t *testing.T) {
	ps := uniformPoints(2000, 2, 41)
	a, _ := runPartition(t, ps, 8, 3, DefaultConfig())
	b, _ := runPartition(t, ps, 8, 3, DefaultConfig())
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("non-deterministic at point %d", i)
		}
	}
}

func TestKIndependentOfP(t *testing.T) {
	// "the number of blocks ... is completely independent from the number
	// of parallel processes" (§4.5): k=10 must work for any p.
	ps := uniformPoints(1500, 2, 43)
	for _, p := range []int{1, 2, 5, 8} {
		part, _ := runPartition(t, ps, 10, p, DefaultConfig())
		imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 10))
		if imb > 0.031 {
			t.Errorf("p=%d: imbalance %.4f", p, imb)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	ps := uniformPoints(300, 2, 47)
	// k = 1.
	part, _ := runPartition(t, ps, 1, 2, DefaultConfig())
	for _, b := range part.Assign {
		if b != 0 {
			t.Fatal("k=1 must assign everything to block 0")
		}
	}
	// More ranks than points on some ranks.
	tiny := uniformPoints(5, 2, 48)
	part, _ = runPartition(t, tiny, 2, 4, DefaultConfig())
	if err := part.Validate(false); err != nil {
		t.Fatal(err)
	}
	// k close to n.
	part, _ = runPartition(t, uniformPoints(64, 2, 49), 32, 2, DefaultConfig())
	if err := part.Validate(false); err != nil {
		t.Fatal(err)
	}
}

func TestStrictModeOnSkewedWeights(t *testing.T) {
	// Adversarial: almost all weight concentrated in one corner cluster.
	rng := rand.New(rand.NewSource(53))
	ps := geom.NewPointSet(2, 4000)
	ps.Weight = make([]float64, 0, 4000)
	for i := 0; i < 4000; i++ {
		if i%4 == 0 {
			ps.Append(geom.Point{rng.Float64() * 0.1, rng.Float64() * 0.1}, 10)
		} else {
			ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 0.5)
		}
	}
	cfg := DefaultConfig()
	cfg.Strict = true
	part, bkm := runPartition(t, ps, 8, 2, cfg)
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 8))
	if imb > cfg.Epsilon+1e-9 {
		t.Errorf("strict mode missed ε: imbalance %.4f (info: %+v)", imb, bkm.LastInfo())
	}
}

func TestSFCBootstrapAblation(t *testing.T) {
	// Random init must still produce a valid (if worse) partition.
	cfg := DefaultConfig()
	cfg.SFCBootstrap = false
	cfg.Strict = true
	ps := uniformPoints(2000, 2, 59)
	part, _ := runPartition(t, ps, 8, 2, cfg)
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 8))
	if imb > cfg.Epsilon+1e-9 {
		t.Errorf("random-init imbalance %.4f", imb)
	}
}

func TestSampledInitOffStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampledInit = false
	ps := uniformPoints(2000, 2, 61)
	part, _ := runPartition(t, ps, 8, 2, cfg)
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 8))
	if imb > 0.031 {
		t.Errorf("imbalance %.4f", imb)
	}
}

func TestClusterCompactness(t *testing.T) {
	// k-means blocks should be compact: mean block bbox area ≈ domain/k,
	// clearly below a strip partition's.
	ps := uniformPoints(6000, 2, 67)
	k := 9
	part, _ := runPartition(t, ps, k, 2, DefaultConfig())
	boxes := make([]geom.Box, k)
	for b := range boxes {
		boxes[b] = geom.EmptyBox(2)
	}
	for i := 0; i < ps.Len(); i++ {
		boxes[part.Assign[i]].Extend(ps.At(i))
	}
	meanArea := 0.0
	for _, bx := range boxes {
		meanArea += bx.Side(0) * bx.Side(1)
	}
	meanArea /= float64(k)
	if meanArea > 3.0/float64(k) {
		t.Errorf("blocks not compact: mean bbox area %.3f (domain/k = %.3f)", meanArea, 1.0/float64(k))
	}
}

func TestInfoPhases(t *testing.T) {
	ps := uniformPoints(1000, 2, 71)
	_, bkm := runPartition(t, ps, 4, 2, DefaultConfig())
	info := bkm.LastInfo()
	if info.SFCSeconds < 0 || info.SortSeconds < 0 || info.KMeansSeconds <= 0 {
		t.Errorf("phase timers: %+v", info)
	}
	if info.BalanceRounds < info.Iterations {
		t.Errorf("balance rounds %d < iterations %d", info.BalanceRounds, info.Iterations)
	}
}

func TestMeanNearestCenterDistance(t *testing.T) {
	centers := []float64{0, 0, 1, 0, 5, 0}
	got := meanNearestCenterDistance(centers, 3, 2)
	want := (1.0 + 1.0 + 4.0) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("β = %g, want %g", got, want)
	}
	if meanNearestCenterDistance(centers[:2], 1, 2) != 0 {
		t.Error("single center should give 0")
	}
}

func TestInvalidK(t *testing.T) {
	bkm := New(DefaultConfig())
	w := mpi.NewWorld(1)
	if _, err := partition.Run(w, uniformPoints(10, 2, 1), 0, bkm); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestPartitionResidentRejectsBadCenters: the warm entry point checks
// its seed centers (length k·dim) and returns an error — never panics —
// for nil or wrong-length slices; a well-formed call on the same
// Resident still succeeds afterwards.
func TestPartitionResidentRejectsBadCenters(t *testing.T) {
	ps := uniformPoints(400, 2, 3)
	const k, p = 4, 2
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}
	good := append([]float64(nil), ps.Coords[:k*ps.Dim]...) // k input points
	bkm := New(DefaultConfig())
	for _, tc := range []struct {
		name    string
		centers []float64
		ok      bool
	}{
		{"nil", nil, false},
		{"short", good[:k*ps.Dim-1], false},
		{"long", append(append([]float64(nil), good...), 0, 0), false},
		{"exact", good, true},
	} {
		errs := make([]error, p)
		if err := w.Run(func(c *mpi.Comm) {
			_, _, errs[c.Rank()] = bkm.PartitionResident(c, res[c.Rank()], k, tc.centers)
		}); err != nil {
			t.Fatalf("%s: world error %v", tc.name, err)
		}
		for r, err := range errs {
			if (err == nil) != tc.ok {
				t.Errorf("%s centers, rank %d: err = %v", tc.name, r, err)
			}
		}
	}
}

func BenchmarkBalancedKMeans(b *testing.B) {
	ps := uniformPoints(50000, 2, 42)
	for i := 0; i < b.N; i++ {
		bkm := New(DefaultConfig())
		w := mpi.NewWorld(4)
		if _, err := partition.Run(w, ps, 16, bkm); err != nil {
			b.Fatal(err)
		}
	}
}

// mixturePoints draws an n-point Gaussian mixture in dim dimensions with
// unit weights: m component centers uniform in [0,10]^dim, unit noise,
// components assigned round-robin — the cold_feature16d shape.
func mixturePoints(n, dim, m int, seed int64) *geom.PointSet {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]float64, m*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 10
	}
	ps := &geom.PointSet{Dim: dim, Coords: make([]float64, n*dim)}
	for i := 0; i < n; i++ {
		c := centers[(i%m)*dim : (i%m+1)*dim]
		for d := range c {
			ps.Coords[i*dim+d] = c[d] + rng.NormFloat64()
		}
	}
	return ps
}

// BenchmarkBalancedKMeans16D is the cold feature-space run: a 40 000-point
// 16-D Gaussian mixture, k = 32, p = 2, serial kernels. Most of its time
// is the sampled bootstrap's iterations (§4.5), which the 2-D benchmark
// above passes through in a few rounds.
func BenchmarkBalancedKMeans16D(b *testing.B) {
	ps := mixturePoints(40_000, 16, 32, 1)
	cfg := DefaultConfig()
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := partition.Run(mpi.NewWorld(2), ps, 32, New(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}
