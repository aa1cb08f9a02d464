package baselines

import (
	"fmt"

	"geographer/internal/dsort"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/sfc"
)

// HSFC partitions by cutting the Hilbert space-filling curve into k
// consecutive weight-balanced pieces (zoltanSFC, §3.1): compute each
// point's Hilbert index over the global bounding box, sort all points by
// index with the distributed sample sort, and assign blocks by global
// weight prefix. One sort is the only communication — the most scalable
// and lowest-quality method in the paper's comparison.
type HSFC struct{}

// Name implements partition.Distributed.
func (HSFC) Name() string { return "Hsfc" }

// Partition implements partition.Distributed.
func (HSFC) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("hsfc: k=%d", k)
	}
	dim := pts.X.Dim
	bmin, bmax := make([]float64, dim), make([]float64, dim)
	partition.GlobalBounds(c, &pts.X, nil, bmin, bmax)

	// The sort batch adopts the rank's columns; the keys are its only
	// new column.
	cols := &dsort.Cols{Dim: dim, Keys: make([]uint64, pts.Len()), IDs: pts.IDs, W: pts.W, C: pts.X.Col}
	sfc.NewCurve(geom.FlatBoxToBox(bmin, bmax), dim).KeysCols(&pts.X, cols.Keys)
	c.AddOps(int64(cols.Len()))

	sorted := dsort.SampleSortCols(c, cols)

	// Weight prefix over the global order.
	localW := 0.0
	for _, w := range sorted.W {
		localW += w
	}
	totalW := mpi.ReduceScalarSum(c, localW)
	prefix := mpi.ExscanSum(c, localW)
	if totalW <= 0 {
		totalW = 1
	}
	perBlock := totalW / float64(k)

	n := sorted.Len()
	ids := make([]int64, n)
	blocks := make([]int32, n)
	cum := prefix
	for i := 0; i < n; i++ {
		// Block of the weight midpoint of this item.
		w := sorted.W[i]
		b := int32((cum + w/2) / perBlock)
		if b > int32(k-1) {
			b = int32(k - 1)
		}
		ids[i] = sorted.IDs[i]
		blocks[i] = b
		cum += w
	}
	c.AddOps(int64(n))
	return ids, blocks, nil
}

// Name implements partition.Distributed for the engine-based methods.
func (e *engine) Name() string { return e.m.name() }
