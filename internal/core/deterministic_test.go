package core

import (
	"fmt"
	"math/rand"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// flatRandomPoints builds a weighted point set of any dimension (the
// uniformPoints helper goes through geom.Point and is capped at MaxDim).
func flatRandomPoints(n, dim int, seed int64) *geom.PointSet {
	rng := rand.New(rand.NewSource(seed))
	ps := &geom.PointSet{
		Dim:    dim,
		Coords: make([]float64, n*dim),
		Weight: make([]float64, n),
	}
	for i := range ps.Coords {
		ps.Coords[i] = rng.Float64() * 8
	}
	for i := range ps.Weight {
		ps.Weight[i] = 0.5 + rng.Float64()
	}
	return ps
}

// TestDeterministicColdPartition pins the unsampled cold path
// (SampledInit off): it must produce bit-identical partitions across
// every rank × worker layout, in the spatial regime (d=2, SFC bootstrap
// on) and the feature-space regime (d=16, sampled-free random init)
// alike — without the sample, every float reduction runs through the
// order-independent exact accumulators. Those accumulators are
// delta-maintained, and the cold run is the case where the run's first
// reduction finds nothing held at all (resetRun left every point
// unassigned before the first kernel pass): every layout is run once more
// through the reference ingest, which must reproduce the partition and
// lets the test compare each rank's maintained banks with rebuilt ones.
func TestDeterministicColdPartition(t *testing.T) {
	for _, tc := range []struct{ n, dim, k int }{
		{4000, 2, 8},
		{1500, 16, 6},
	} {
		t.Run(fmt.Sprintf("dim=%d", tc.dim), func(t *testing.T) {
			ps := flatRandomPoints(tc.n, tc.dim, int64(50+tc.dim))
			cfg := DefaultConfig()
			cfg.SampledInit = false
			cfg.Seed = 3

			run := func(p, workers int) []int32 {
				c := cfg
				c.Workers = workers
				part, err := partition.Run(mpi.NewWorld(p), ps, tc.k, New(c))
				if err != nil {
					t.Fatalf("p=%d workers=%d: %v", p, workers, err)
				}
				if err := part.Validate(false); err != nil {
					t.Fatalf("p=%d workers=%d: %v", p, workers, err)
				}
				return part.Assign
			}

			probed := func(p, workers int) []int32 {
				c := cfg
				c.Workers = workers
				ctx := fmt.Sprintf("p=%d workers=%d", p, workers)
				part, err := partition.Run(mpi.NewWorld(p), ps, tc.k, refIngest{
					BalancedKMeans: New(c),
					probe:          func(st *state) { checkOwnBanks(t, st, ctx) },
				})
				if err != nil {
					t.Fatalf("%s (probed): %v", ctx, err)
				}
				return part.Assign
			}

			base := run(1, 1)
			for _, p := range []int{1, 2, 3} {
				for _, workers := range []int{1, 2} {
					for _, got := range [][]int32{run(p, workers), probed(p, workers)} {
						for i := range base {
							if got[i] != base[i] {
								t.Fatalf("p=%d workers=%d: assignment diverged at point %d (%d vs %d)",
									p, workers, i, got[i], base[i])
							}
						}
					}
				}
			}
		})
	}
}
