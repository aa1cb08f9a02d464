package partition

import (
	"context"
	"fmt"
	"math"

	"geographer/internal/geom"
	"geographer/internal/mpi"
)

// Local is one rank's share of a distributed point set, held the way
// every partitioner computes on it: column-major. Every point carries
// its global id so results can be assembled after arbitrary migrations
// (distributed partitioners move points between ranks); W always holds
// values (unit weights are materialized); X holds the Dim coordinate
// columns (geom.MakeCols) and no others.
//
// The rank owns all three: a partitioner adopts them as its working
// columns and may mutate them in place — the sampled bootstrap rotates
// them, a session keeps them as its resident store.
type Local struct {
	IDs []int64
	W   []float64
	X   geom.Cols
}

// Len returns the number of local points.
func (l *Local) Len() int { return len(l.IDs) }

// Distributed is a partitioner that runs SPMD inside a simulated MPI
// world. It returns (ids, blocks) pairs — the ids may be a permutation of
// the input ids (migrated points report from their final owner).
type Distributed interface {
	Name() string
	Partition(c *mpi.Comm, pts *Local, k int) (ids []int64, blocks []int32, err error)
}

// View returns rank r's share of ps on a world of p ranks: the
// contiguous chunk of point indices [r·n/p, (r+1)·n/p), the one rank
// layout every scattered or restored rank holds, transposed once into
// fresh columns the rank owns. Nothing aliases ps, so the rank may
// mutate what it gets; global ids are the point indices in ps.
func View(ps *geom.PointSet, p, r int) *Local {
	n, dim := ps.Len(), ps.Dim
	lo := r * n / p
	hi := (r + 1) * n / p
	m := hi - lo
	// The columns first: allocated after IDs and W, the same bytes raised
	// a 16-D cold run's peak RSS by about 1 MB.
	x := geom.MakeCols(dim, m)
	lp := &Local{IDs: make([]int64, m), W: make([]float64, m), X: x}
	for i := range lp.IDs {
		lp.IDs[i] = int64(lo + i)
	}
	if ps.Weight != nil {
		copy(lp.W, ps.Weight[lo:hi])
	} else {
		for i := range lp.W {
			lp.W[i] = 1
		}
	}
	src := ps.Coords[lo*dim : hi*dim]
	for d, c := range x.Col {
		for i := range c {
			c[i] = src[i*dim+d]
		}
	}
	return lp
}

// Scatter returns this rank's share of ps: View on the comm's layout.
func Scatter(c *mpi.Comm, ps *geom.PointSet) *Local {
	return View(ps, c.Size(), c.Rank())
}

// GlobalBounds sets bmin and bmax (len x.Dim each) to the bounding box
// of the union of every rank's columns x. Collective: every rank of the
// world must call it. Each rank folds its columns into buf — dim mins
// followed by dim *negated* maxs — so the whole box reduces with one
// AllreduceMinInto (max x = −min(−x), including the IEEE zero-sign
// tie-breaks). buf is grown to 2·dim when short and returned, so a
// caller that keeps it allocates nothing on later calls.
func GlobalBounds(c *mpi.Comm, x *geom.Cols, buf, bmin, bmax []float64) []float64 {
	dim := x.Dim
	if cap(buf) < 2*dim {
		buf = make([]float64, 2*dim)
	}
	buf = buf[:2*dim]
	for d, col := range x.Col {
		buf[d], buf[dim+d] = foldColumn(col)
	}
	mpi.AllreduceMinInto(c, buf, buf)
	for d := 0; d < dim; d++ {
		bmin[d] = buf[d]
		bmax[d] = -buf[dim+d]
	}
	return buf
}

// foldColumn returns min(col) and min(−col), both +Inf for an empty
// column. A plain compare decides the common case; math.Min is called
// only where it would change the value or where two zeros meet, so the
// −0 < +0 tie-break the packed reduction relies on stays math.Min's.
// (NaN coordinates are rejected at the public boundary,
// geom.PointSet.Validate; one that got here would be ignored, where
// math.Min alone would poison the fold.)
func foldColumn(col []float64) (mn, negMax float64) {
	mn, negMax = math.Inf(1), math.Inf(1)
	for _, v := range col {
		if v < mn || (v == 0 && mn == 0) {
			mn = math.Min(mn, v)
		}
		v = -v
		if v < negMax || (v == 0 && negMax == 0) {
			negMax = math.Min(negMax, v)
		}
	}
	return mn, negMax
}

// Run executes a distributed partitioner on ps over world w and assembles
// the global partition.
func Run(w *mpi.World, ps *geom.PointSet, k int, d Distributed) (P, error) {
	return RunCtx(nil, w, ps, k, d)
}

// RunCtx is Run under a context: a cancellation that lands mid-run
// aborts the world through the mpi runtime's abort path
// (mpi.World.RunCtx) and surfaces as a typed mpi.ErrBroken; a context
// cancelled before the run starts returns its cause and leaves the world
// untouched. A nil context runs exactly like Run.
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
