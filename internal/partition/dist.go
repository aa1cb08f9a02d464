package partition

import (
	"context"
	"fmt"

	"geographer/internal/geom"
	"geographer/internal/mpi"
)

// Local is the per-rank view of a distributed point set: every point
// carries its global id so results can be assembled after arbitrary
// migrations (distributed partitioners move points between ranks).
// Coordinates are stored flat (stride Dim) so any dimension fits; the
// At accessor serves the spatial (Dim ≤ geom.MaxDim) consumers.
type Local struct {
	Dim    int
	IDs    []int64
	Coords []float64 // len = Len()·Dim, stride Dim
	W      []float64 // nil = unit weights
}

// Len returns the number of local points.
func (l *Local) Len() int { return len(l.IDs) }

// At returns local point i as a Point value (Dim ≤ geom.MaxDim only).
func (l *Local) At(i int) geom.Point {
	var p geom.Point
	base := i * l.Dim
	for d := 0; d < l.Dim; d++ {
		p[d] = l.Coords[base+d]
	}
	return p
}

// Coord returns the flat coordinate vector of local point i (any
// dimension; the returned slice aliases the Coords buffer).
func (l *Local) Coord(i int) []float64 {
	return l.Coords[i*l.Dim : (i+1)*l.Dim]
}

// Weight returns the weight of local point i.
func (l *Local) Weight(i int) float64 {
	if l.W == nil {
		return 1
	}
	return l.W[i]
}

// Distributed is a partitioner that runs SPMD inside a simulated MPI
// world. It returns (ids, blocks) pairs — the ids may be a permutation of
// the input ids (migrated points report from their final owner).
type Distributed interface {
	Name() string
	Partition(c *mpi.Comm, pts *Local, k int) (ids []int64, blocks []int32, err error)
}

// View returns rank r's share of ps on a world of p ranks: the
// contiguous chunk of point indices [r·n/p, (r+1)·n/p), the one rank
// layout every scattered or restored rank holds. Coords and W alias ps
// (read-only: the caller must not write through them); IDs is fresh.
func View(ps *geom.PointSet, p, r int) *Local {
	n := ps.Len()
	lo := r * n / p
	hi := (r + 1) * n / p
	lp := &Local{
		Dim:    ps.Dim,
		IDs:    make([]int64, hi-lo),
		Coords: ps.Coords[lo*ps.Dim : hi*ps.Dim],
	}
	if ps.Weight != nil {
		lp.W = ps.Weight[lo:hi]
	}
	for i := range lp.IDs {
		lp.IDs[i] = int64(lo + i)
	}
	return lp
}

// Scatter returns this rank's chunk of ps (View's layout) as a copy the
// rank owns. Global ids are the point indices in ps.
func Scatter(c *mpi.Comm, ps *geom.PointSet) *Local {
	lp := View(ps, c.Size(), c.Rank())
	lp.Coords = append([]float64(nil), lp.Coords...)
	lp.W = append([]float64(nil), lp.W...)
	return lp
}

// Run executes a distributed partitioner on ps over world w and assembles
// the global partition.
func Run(w *mpi.World, ps *geom.PointSet, k int, d Distributed) (P, error) {
	return RunCtx(nil, w, ps, k, d)
}

// RunCtx is Run under a context: cancellation aborts the world through
// the mpi runtime's abort path (mpi.World.RunCtx) and surfaces as a
// typed mpi.ErrBroken. A nil context runs exactly like Run.
func RunCtx(ctx context.Context, w *mpi.World, ps *geom.PointSet, k int, d Distributed) (P, error) {
	return Gather(ctx, w, ps.Len(), k, d.Name(), func(c *mpi.Comm) ([]int64, []int32, error) {
		return d.Partition(c, Scatter(c, ps), k)
	})
}

// Gather runs part on every rank of w — cancellable through ctx, nil =
// not cancellable — and assembles the global assignment of n points to
// k blocks from the (ids, blocks) pairs the ranks return; ids must be
// globally disjoint. The write-back exploits shared memory for output
// collection only — the algorithm under test communicates exclusively
// through the mpi runtime. A rank error aborts the world, and a point no
// rank reported is an error; name prefixes both.
func Gather(ctx context.Context, w *mpi.World, n, k int, name string, part func(c *mpi.Comm) (ids []int64, blocks []int32, err error)) (P, error) {
	out := New(n, k)
	for i := range out.Assign {
		out.Assign[i] = -1
	}
	runErr := w.RunCtx(ctx, func(c *mpi.Comm) {
		ids, blocks, err := part(c)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", name, err))
		}
		if len(ids) != len(blocks) {
			panic(fmt.Sprintf("%s: %d ids but %d blocks", name, len(ids), len(blocks)))
		}
		for i, id := range ids {
			out.Assign[id] = blocks[i]
		}
	})
	if runErr != nil {
		return P{}, runErr
	}
	for i, b := range out.Assign {
		if b < 0 {
			return P{}, fmt.Errorf("%s: point %d left unassigned", name, i)
		}
	}
	return out, nil
}
