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

// Heterogeneous two-cluster data: without erosion, influence values tuned
// for the dense region travel with centers into the sparse region and can
// produce pathological intermediate assignments. Erosion must never hurt
// final balance.
func TestErosionOnHeterogeneousDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := geom.NewPointSet(2, 6000)
	for i := 0; i < 6000; i++ {
		if i%3 == 0 { // sparse wide background
			ps.Append(geom.Point{rng.Float64() * 10, rng.Float64() * 10}, 1)
		} else { // dense clump
			ps.Append(geom.Point{rng.Float64() * 0.5, rng.Float64() * 0.5}, 1)
		}
	}
	for _, erosion := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Erosion = erosion
		cfg.Strict = true
		part, _ := runPartition(t, ps, 12, 2, cfg)
		imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 12))
		if imb > cfg.Epsilon+1e-9 {
			t.Errorf("erosion=%v: imbalance %.4f", erosion, imb)
		}
	}
}

func TestElkanOnWeighted3D(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps := geom.NewPointSet(3, 3000)
	ps.Weight = make([]float64, 0, 3000)
	for i := 0; i < 3000; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}, 0.5+rng.Float64())
	}
	cfg := DefaultConfig()
	cfg.Bounds = BoundsElkan
	part, bkm := runPartition(t, ps, 10, 3, cfg)
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 10))
	if imb > 0.031 {
		t.Errorf("imbalance %.4f", imb)
	}
	if bkm.LastInfo().HamerlySkips == 0 {
		t.Error("Elkan bounds never skipped a center")
	}
}

// A rank with zero points must not break any collective path, including
// strict mode and Elkan bounds.
func TestEmptyRanks(t *testing.T) {
	ps := uniformPoints(9, 2, 7) // 9 points over 6 ranks: some ranks get 1, some 2
	for _, bounds := range []BoundsKind{BoundsHamerly, BoundsElkan, BoundsNone} {
		cfg := DefaultConfig()
		cfg.Bounds = bounds
		cfg.Strict = true
		part, _ := runPartition(t, ps, 3, 6, cfg)
		if err := part.Validate(false); err != nil {
			t.Fatalf("bounds=%s: %v", bounds, err)
		}
	}
}

// Duplicate points (all identical): every distance ties; the algorithm
// must terminate and produce a valid partition (balance is impossible to
// measure geometrically but assignment must not diverge).
func TestAllIdenticalPoints(t *testing.T) {
	ps := geom.NewPointSet(2, 200)
	for i := 0; i < 200; i++ {
		ps.Append(geom.Point{0.5, 0.5}, 1)
	}
	cfg := DefaultConfig()
	cfg.MaxIter = 10
	part, _ := runPartition(t, ps, 4, 2, cfg)
	if err := part.Validate(false); err != nil {
		t.Fatal(err)
	}
}

func TestCollinearPoints(t *testing.T) {
	// All points on a line: degenerate boxes, zero-width dimensions.
	ps := geom.NewPointSet(2, 1000)
	for i := 0; i < 1000; i++ {
		ps.Append(geom.Point{float64(i) / 1000, 0.25}, 1)
	}
	part, _ := runPartition(t, ps, 8, 2, DefaultConfig())
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 8))
	if imb > 0.05 {
		t.Errorf("collinear imbalance %.4f", imb)
	}
	// Blocks should be contiguous ranges on the line (compact 1D cells).
	seen := map[int32]bool{}
	last := int32(-1)
	for i := 0; i < 1000; i++ {
		b := part.Assign[i]
		if b != last {
			if seen[b] {
				t.Errorf("block %d appears in two separate runs along the line", b)
				break
			}
			seen[b] = true
			last = b
		}
	}
}

func TestSkipRateInfo(t *testing.T) {
	ps := uniformPoints(5000, 2, 8)
	_, bkm := runPartition(t, ps, 16, 2, DefaultConfig())
	info := bkm.LastInfo()
	if rate := info.SkipRate(); rate <= 0 || rate >= 1 {
		t.Errorf("skip rate %g out of (0,1)", rate)
	}
	if (Info{}).SkipRate() != 0 {
		t.Error("zero Info should have zero skip rate")
	}
	if info.Visits <= 0 {
		t.Error("no point visits recorded")
	}
}

func TestZeroValueConfigIsUsable(t *testing.T) {
	// New(Config{}) must not hang or crash: Partition substitutes the
	// defaults when MaxIter is zero.
	bkm := New(Config{})
	w := mpi.NewWorld(2)
	ps := uniformPoints(500, 2, 9)
	part, err := partition.Run(w, ps, 4, bkm)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(false); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsUnmeetableEpsilon: `imb <= Epsilon` can never hold
// for a negative or a NaN ε, so Validate refuses both and Partition
// reports the error instead of burning every balance round — also from a
// zero-value Config, whose ε survives normalized.
func TestValidateRejectsUnmeetableEpsilon(t *testing.T) {
	for _, eps := range []float64{-0.01, math.NaN()} {
		cfg := DefaultConfig()
		cfg.Epsilon = eps
		if err := cfg.Validate(4); err == nil {
			t.Errorf("Validate accepted Epsilon=%g", eps)
		}
		ps := uniformPoints(300, 2, 9)
		if _, err := partition.Run(mpi.NewWorld(2), ps, 4, New(Config{Epsilon: eps})); err == nil {
			t.Errorf("Partition accepted Epsilon=%g", eps)
		}
	}
}

// TestValidateRejectsNegativeWorkers: a negative Workers count used to
// mean "auto" silently; Validate refuses it, from DefaultConfig and from
// a zero-value Config alike.
func TestValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -3
	if err := cfg.Validate(4); err == nil {
		t.Error("Validate accepted Workers=-3")
	}
	ps := uniformPoints(300, 2, 9)
	if _, err := partition.Run(mpi.NewWorld(2), ps, 4, New(Config{Workers: -3})); err == nil {
		t.Error("Partition accepted Workers=-3")
	}
}

// TestValidateRejectsUnknownBounds: a misspelled or empty Bounds on a
// configuration with MaxIter set used to run plain Lloyd silently, and
// the next warm run on a session claimed carried bounds it never kept.
// Validate accepts the three kinds, and an empty one only on the
// zero-value Config that normalized fills.
func TestValidateRejectsUnknownBounds(t *testing.T) {
	for _, b := range []BoundsKind{"hamerley", "", "Hamerly"} {
		cfg := DefaultConfig()
		cfg.Bounds = b
		if err := cfg.Validate(4); err == nil {
			t.Errorf("Validate accepted Bounds=%q", b)
		}
		ps := uniformPoints(300, 2, 9)
		if _, err := partition.Run(mpi.NewWorld(2), ps, 4, New(cfg)); err == nil {
			t.Errorf("Partition accepted Bounds=%q", b)
		}
	}
	if err := (Config{Bounds: "hamerley"}).Validate(4); err == nil {
		t.Error("Validate accepted Bounds=\"hamerley\" on a zero-value Config")
	}
	for _, b := range []BoundsKind{BoundsHamerly, BoundsElkan, BoundsNone} {
		cfg := DefaultConfig()
		cfg.Bounds = b
		if err := cfg.Validate(4); err != nil {
			t.Errorf("Validate rejected Bounds=%q: %v", b, err)
		}
	}
	if err := (Config{}).Validate(4); err != nil {
		t.Errorf("Validate rejected the zero-value Config: %v", err)
	}
}

func TestManyBlocksFewPointsPerBlock(t *testing.T) {
	// k=128 over 2560 points: 20 points per block; stresses the influence
	// adaptation with small counts.
	ps := uniformPoints(2560, 2, 10)
	cfg := DefaultConfig()
	cfg.Strict = true
	part, _ := runPartition(t, ps, 128, 4, cfg)
	imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 128))
	// With 20 points per block, one point is 5% — ε=3% is unreachable;
	// strict mode must still terminate. Accept one-point granularity.
	if imb > 0.051 {
		t.Errorf("imbalance %.4f beyond one-point granularity", imb)
	}
}

// Paper §4.5: "In our experiments with ε ∈ {0.03, 0.05}, balance was
// always achieved when allowing a sufficient number of balance and
// movement iterations." Check both epsilons across mesh-like inputs.
func TestBalanceAlwaysAchievedPaperEpsilons(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inputs := map[string]*geom.PointSet{
		"uniform": uniformPoints(4000, 2, 12),
	}
	// Graded density (refined-mesh-like).
	graded := geom.NewPointSet(2, 4000)
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			graded.Append(geom.Point{rng.Float64(), rng.Float64()}, 1)
		} else {
			graded.Append(geom.Point{0.3 + rng.NormFloat64()*0.05, 0.7 + rng.NormFloat64()*0.05}, 1)
		}
	}
	inputs["graded"] = graded
	for name, ps := range inputs {
		for _, eps := range []float64{0.03, 0.05} {
			cfg := DefaultConfig()
			cfg.Epsilon = eps
			part, bkm := runPartition(t, ps, 16, 2, cfg)
			imb := metrics.Imbalance(metrics.BlockWeights(ps, part.Assign, 16))
			if imb > eps+1e-9 {
				t.Errorf("%s ε=%.2f: imbalance %.4f (info %+v)", name, eps, imb, bkm.LastInfo())
			}
		}
	}
}

func TestConvergenceMonotonicity(t *testing.T) {
	// More iterations must never worsen the k-means objective: compare
	// cost of 3-iteration vs default runs.
	ps := uniformPoints(3000, 2, 11)
	cost := func(maxIter int) float64 {
		cfg := DefaultConfig()
		cfg.MaxIter = maxIter
		bkm := New(cfg)
		w := mpi.NewWorld(2)
		part, err := partition.Run(w, ps, 8, bkm)
		if err != nil {
			t.Fatal(err)
		}
		// Objective: sum of squared distance to block centroid.
		var cx [8]geom.Point
		var cw [8]float64
		for i := 0; i < ps.Len(); i++ {
			b := part.Assign[i]
			cx[b] = cx[b].Add(ps.At(i))
			cw[b]++
		}
		for b := range cx {
			if cw[b] > 0 {
				cx[b] = cx[b].Scale(1 / cw[b])
			}
		}
		total := 0.0
		for i := 0; i < ps.Len(); i++ {
			total += geom.Dist2(ps.At(i), cx[part.Assign[i]], 2)
		}
		return total
	}
	early := cost(3)
	full := cost(60)
	if full > early*1.05 {
		t.Errorf("longer run worsened objective: %.3f -> %.3f", early, full)
	}
	if math.IsNaN(early) || math.IsNaN(full) {
		t.Fatal("NaN objective")
	}
}
