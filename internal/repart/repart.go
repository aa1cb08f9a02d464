// Package repart implements warm-start repartitioning: re-running the
// balanced k-means of internal/core on a point set that already carries
// a block assignment, seeded from that assignment's centers instead of
// the space-filling-curve bootstrap.
//
// This is the dynamic-workload scenario the paper motivates geometric
// partitioners with (§1: the 2.5D climate simulation re-extends its
// mesh "during the simulation" as load evolves): a simulation
// repartitions repeatedly, and the previous partition's centers are a
// far better seed than a fresh SFC bootstrap — the k-means converges in
// few iterations, the expensive ingest phase (Hilbert keys, global
// sort, redistribution, §4.1) is skipped entirely, and because the new
// partition grows out of the old one, far fewer points change block.
// The weight of the points that do change block is the migration
// volume, the repartitioning cost measure of the literature (Buluç et
// al., arXiv 1311.3144 §5; Sasidharan, arXiv 2503.02185), reported here
// next to the usual cut/imbalance metrics.
package repart

import (
	"fmt"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// Stats reports what one Repartition call did.
type Stats struct {
	// MigratedWeight is the total weight of points whose block changed
	// relative to the previous assignment; MigratedPoints counts them.
	MigratedWeight float64
	MigratedPoints int
	// TotalWeight is the weight of the whole point set, so
	// MigratedWeight/TotalWeight is the migrated fraction.
	TotalWeight float64
	// Info carries the k-means diagnostics of the run, including the
	// incremental warm path's counters (DistCalcs, HamerlySkips,
	// BoundaryFrac, and CarriedBounds: whether this step reused the
	// previous step's bounds on every rank).
	Info core.Info
	// IngestSeconds is the wall time spent scattering the points and
	// building the resident SoA columns before the warm k-means could
	// run. A one-shot Repartition pays it on every call; a Session pays
	// it once at construction (Session.IngestSeconds) and its warm steps
	// report 0 here.
	IngestSeconds float64

	// PreImbalance is the imbalance of the previous partition under the
	// current weights, measured before the step ran. Only
	// RepartitionIfAbove fills it (it is the quantity the eps threshold
	// is tested against); plain Repartition leaves it 0.
	PreImbalance float64

	// Retries counts the retries RepartitionWithRetry needed before this
	// step succeeded (0 = first attempt worked; other drivers always
	// leave it 0).
	Retries int
}

// RecoverCenters computes the warm-start seed centers from a previous
// assignment: the weighted mean of each block's points. The pass runs
// in global index order, so the recovered centers are a pure function
// of the input — independent of rank and worker counts.
//
// Blocks that became degenerate keep deterministic fallbacks: a block
// whose points all have zero weight uses the unweighted mean, and an
// empty block is re-seeded at a block-specific position on the bounding
// box diagonal (distinct per block, so no two recovered centers
// coincide and tie-breaking stays order-independent).
func RecoverCenters(ps *geom.PointSet, prev []int32, k int) ([]float64, error) {
	n := ps.Len()
	if n == 0 {
		return nil, fmt.Errorf("repart: empty point set")
	}
	if err := partition.Check(prev, n, k); err != nil {
		return nil, fmt.Errorf("repart: invalid previous assignment: %w", err)
	}

	dim := ps.Dim
	wSum := make([]float64, k)
	count := make([]int64, k)
	wMean := make([]float64, k*dim) // Σ w·x per block
	uMean := make([]float64, k*dim) // Σ x per block (zero-weight fallback)
	bmin := make([]float64, dim)
	bmax := make([]float64, dim)
	geom.FlatBoxInit(bmin, bmax)
	for i := 0; i < n; i++ {
		b := int(prev[i])
		x := ps.Coords[i*dim : (i+1)*dim]
		w := ps.W(i)
		count[b]++
		wSum[b] += w
		base := b * dim
		for d := 0; d < dim; d++ {
			wMean[base+d] += w * x[d]
			uMean[base+d] += x[d]
			if x[d] < bmin[d] {
				bmin[d] = x[d]
			}
			if x[d] > bmax[d] {
				bmax[d] = x[d]
			}
		}
	}

	centers := make([]float64, k*dim)
	for b := 0; b < k; b++ {
		base := b * dim
		switch {
		case wSum[b] > 0:
			for d := 0; d < dim; d++ {
				centers[base+d] = wMean[base+d] / wSum[b]
			}
		case count[b] > 0:
			for d := 0; d < dim; d++ {
				centers[base+d] = uMean[base+d] / float64(count[b])
			}
		default:
			// Empty block: spread along the global bounding box diagonal
			// at a block-specific offset.
			t := (float64(b) + 0.5) / float64(k)
			for d := 0; d < dim; d++ {
				centers[base+d] = bmin[d] + t*(bmax[d]-bmin[d])
			}
		}
	}
	return centers, nil
}

// Repartition re-partitions ps into k ≤ ps.Len() blocks over world w,
// warm-started from prev: the seed centers are recovered from prev by RecoverCenters
// and the balanced k-means runs with cfg on the warm path of
// internal/core (no SFC sort/redistribution; exact, rank-layout-
// independent reductions). The returned stats carry the migration
// volume against prev.
//
// This one-shot driver is a single-step Session: it ingests ps, installs
// prev, runs one warm step, and releases the resident state — so a
// chain of Repartition calls and a Session chain over the same inputs
// produce bit-identical partitions, and the only difference is that
// the Session pays the ingest once (compare Stats.IngestSeconds).
func Repartition(w *mpi.World, ps *geom.PointSet, prev []int32, k int, cfg core.Config) (partition.P, Stats, error) {
	s, err := NewSession(w, ps, k, cfg)
	if err != nil {
		return partition.P{}, Stats{}, err
	}
	defer s.Close()
	if err := s.SetPartition(prev); err != nil {
		return partition.P{}, Stats{}, err
	}
	p, st, err := s.Repartition()
	if err != nil {
		return partition.P{}, Stats{}, err
	}
	st.IngestSeconds = s.IngestSeconds()
	return p, st, nil
}
