// Package sfc implements Hilbert space-filling curve keys in 1, 2 and 3
// dimensions.
//
// Geographer uses the Hilbert curve twice (paper §4.1): to globally sort
// and redistribute the input points so that each process holds a spatially
// compact chunk, and to place the initial k-means centers at equal
// distances along the curve (§4.5, Algorithm 2 line 7). The zoltanSFC /
// HSFC baseline partitioner (§3.1) cuts the same curve into k consecutive
// weight-balanced pieces, and the 2D mesh generator inserts its points in
// curve order.
//
// The index is the one of Skilling's transpose formulation ("Programming
// the Hilbert curve", 2004). Curve.KeysCols is the only code that computes
// it: a table-driven transducer in 2D and 3D, and in 1D the cell index
// itself, which is what Skilling's transpose reduces to for one axis (see
// keysRange). Skilling's bit-serial loop lives on in the tests as the
// oracle the kernels are pinned to.
package sfc

import (
	"geographer/internal/geom"
)

// Order2D is the default bits per dimension for 2D keys (62-bit keys).
const Order2D = 31

// Order3D is the default bits per dimension for 3D keys (63-bit keys).
const Order3D = 21

// Curve maps points inside a bounding box to Hilbert keys. It is the
// object handed to the distributed sort (paper §4.1) and to the HSFC
// baseline.
type Curve struct {
	box   geom.Box
	dim   int
	bits  uint
	scale [3]float64 // per-axis multiplier into cell space
}

// NewCurve returns a curve of the default order for the box's dimension
// (1, 2 or 3). Degenerate box extents (zero width) are handled by mapping
// every coordinate of that axis to cell 0.
func NewCurve(box geom.Box, dim int) *Curve {
	bits := uint(Order2D)
	if dim == 3 {
		bits = Order3D
	}
	return NewCurveOrder(box, dim, bits)
}

// NewCurveOrder returns a curve with an explicit order (bits per
// dimension). Orders above 31 (1D, 2D) / 21 (3D) would overflow uint64
// keys and are clamped.
func NewCurveOrder(box geom.Box, dim int, bits uint) *Curve {
	maxBits := uint(Order2D)
	if dim == 3 {
		maxBits = Order3D
	}
	if bits > maxBits {
		bits = maxBits
	}
	if bits < 1 {
		bits = 1
	}
	c := &Curve{box: box, dim: dim, bits: bits}
	cells := float64(uint64(1) << bits)
	for i := 0; i < dim; i++ {
		if side := box.Side(i); side > 0 {
			// Scale so box.Max maps just below the cell count.
			c.scale[i] = cells * (1 - 1e-12) / side
		}
	}
	return c
}
