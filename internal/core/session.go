package core

import (
	"fmt"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// Resident is one rank's long-lived partitioner state: the ingested SoA
// point columns (coordinates, weights, global ids) plus all per-point
// and per-cluster k-means scratch, kept alive across warm Partition
// calls. It is the per-rank building block of the session API
// (internal/repart.Session and the geographer.Session facade): a
// streaming driver ingests once with Ingest, then runs
// BalancedKMeans.PartitionResident once per timestep, updating weights
// or coordinates in place between steps instead of re-scattering the
// whole point set.
//
// A Resident belongs to exactly one rank of one world; it must not be
// shared between ranks. Reusing it across consecutive World.Run calls
// is safe: Run establishes the necessary happens-before edges.
type Resident struct {
	dim        int
	bmin, bmax []float64 // flat global bounding box, len dim each

	// st owns the resident columns (X, W, IDs) and every reusable
	// k-means buffer. PartitionResident re-binds the per-call fields
	// (comm, config, k) and resets — or, when the previous warm run
	// left valid bounds, drift-corrects and reuses — the per-run
	// values; buffer allocations survive between calls.
	st state
}

// Ingest builds the resident state from this rank's scattered points:
// one collective bounding-box reduction plus one copy of the local
// points into SoA columns. This is the only per-point-set cost of a
// session; every subsequent warm partition reuses the columns.
func Ingest(c *mpi.Comm, pts *partition.Local) *Resident {
	bmin, bmax := globalBounds(c, pts)
	r := &Resident{dim: pts.Dim, bmin: bmin, bmax: bmax}
	st := &r.st
	st.X = geom.MakeCols(pts.Dim, pts.Len())
	st.W = make([]float64, pts.Len())
	st.IDs = make([]int64, pts.Len())
	n := pts.Len()
	for i := 0; i < n; i++ {
		st.X.SetVec(i, pts.Coord(i))
		st.W[i] = pts.Weight(i)
		st.IDs[i] = pts.IDs[i]
	}
	return r
}

// Len returns the number of resident local points.
func (r *Resident) Len() int { return r.st.X.Len() }

// Dim returns the coordinate dimension.
func (r *Resident) Dim() int { return r.dim }

// SetWeightsGlobal replaces the resident weight column from a global
// weight vector indexed by point id (nil means unit weights). Purely
// local — no communication — so a session applies a weight delta
// without re-scattering coordinates. The warm path recomputes every
// global weight reduction exactly each call, so no derived state needs
// invalidation; in particular the carried distance bounds survive —
// weights influence balance targets, never distances.
func (r *Resident) SetWeightsGlobal(w []float64) {
	st := &r.st
	if w == nil {
		for i := range st.W {
			st.W[i] = 1
		}
		return
	}
	for i, id := range st.IDs {
		st.W[i] = w[id]
	}
}

// SetCoordsGlobal replaces the resident coordinate columns from a flat
// global coordinate slice (stride Dim, indexed by point id). Callers
// must follow with RecomputeBounds on every rank — the cached global
// bounding box (and the center-movement threshold derived from its
// diagonal) is a function of the coordinates. Carried k-means bounds
// are dropped: they relate the *old* point positions to the centers,
// and per-point displacements are unbounded (see DESIGN.md,
// "Incremental bound invariants"), so the next warm run resets.
func (r *Resident) SetCoordsGlobal(coords []float64) {
	st := &r.st
	st.carryValid = false
	for i, id := range st.IDs {
		st.X.SetVec(i, coords[int(id)*r.dim:(int(id)+1)*r.dim])
	}
}

// RecomputeBounds refreshes the cached global bounding box from the
// resident columns. Collective: every rank of the world must call it.
// The reduction is min/max, so the result is bit-identical to the box
// the one-shot warm path computes, regardless of the rank layout.
func (r *Resident) RecomputeBounds(c *mpi.Comm) {
	st := &r.st
	// Reuses the state's persistent fold buffer when a partition call
	// has sized it (before the first call it is grown here, once).
	st.boxBuf = localBoundsInit(st.boxBuf, r.dim)
	n := st.X.Len()
	if len(r.bmin) != r.dim {
		r.bmin = make([]float64, r.dim)
		r.bmax = make([]float64, r.dim)
	}
	vec := make([]float64, r.dim)
	for i := 0; i < n; i++ {
		st.X.AtVec(i, vec)
		foldBounds(st.boxBuf, vec, r.dim)
	}
	reduceBounds(c, r.dim, st.boxBuf, r.bmin, r.bmax)
}

// PartitionResident is Partition for resident state: the warm-start
// balanced k-means, seeded with centers (flat, length k·dim), runs
// directly on r's columns — no scatter, no SFC sort, no redistribution,
// and no per-point allocations after the first call on a given
// Resident. The output contract matches Partition: (ids, blocks) pairs
// for this rank's points, bit-identical across rank and worker counts
// (see DESIGN.md, "Repartitioning invariants" and "Session
// invariants").
func (b *BalancedKMeans) PartitionResident(c *mpi.Comm, r *Resident, k int, centers []float64) ([]int64, []int32, error) {
	cfg := b.Cfg.normalized()
	if err := cfg.Validate(k); err != nil {
		return nil, nil, err
	}
	if len(centers) != k*r.dim {
		return nil, nil, fmt.Errorf("core: %d warm center coordinates for k=%d, dim=%d", len(centers), k, r.dim)
	}
	st := &r.st
	st.c, st.cfg, st.k, st.dim = c, cfg, k, r.dim
	st.warm = true
	st.info = Info{}
	st.diag = geom.FlatBoxDiagonal(r.bmin, r.bmax)
	if st.diag == 0 {
		st.diag = 1
	}
	return b.finish(st, centers)
}
