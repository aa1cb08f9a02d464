// Package sfc implements Hilbert space-filling curves in 2 and 3 dimensions.
//
// Geographer uses the Hilbert curve twice (paper §4.1): to globally sort
// and redistribute the input points so that each process holds a spatially
// compact chunk, and to place the initial k-means centers at equal
// distances along the curve (§4.5, Algorithm 2 line 7). The zoltanSFC /
// HSFC baseline partitioner (§3.1) cuts the same curve into k consecutive
// weight-balanced pieces.
//
// The index computation follows Skilling's transpose formulation
// ("Programming the Hilbert curve", 2004), which handles any dimension
// with one code path; we expose the 2D and 3D cases used by the paper.
package sfc

import (
	"geographer/internal/geom"
)

// Order2D is the default bits per dimension for 2D keys (62-bit keys).
const Order2D = 31

// Order3D is the default bits per dimension for 3D keys (63-bit keys).
const Order3D = 21

// axesToTranspose converts coordinates (in-place) into the "transposed"
// Hilbert index representation: afterwards x[i] holds every dim-th bit of
// the Hilbert index. bits is the curve order (bits per dimension).
func axesToTranspose(x *[3]uint32, bits uint, dim int) {
	m := uint32(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < dim; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x[0]
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < dim; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[dim-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < dim; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x *[3]uint32, bits uint, dim int) {
	n := uint32(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[dim-1] >> 1
	for i := dim - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := dim - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed representation into a single index.
// Bit layout (MSB first): bit (bits-1) of x[0], bit (bits-1) of x[1], ...,
// down to bit 0 of x[dim-1]. The total must fit in 64 bits.
func interleave(x [3]uint32, bits uint, dim int) uint64 {
	var out uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < dim; i++ {
			out = out<<1 | uint64(x[i]>>uint(b)&1)
		}
	}
	return out
}

// deinterleave is the inverse of interleave.
func deinterleave(h uint64, bits uint, dim int) [3]uint32 {
	var x [3]uint32
	total := int(bits) * dim
	for pos := 0; pos < total; pos++ {
		bit := uint32(h >> uint(total-1-pos) & 1)
		axis := pos % dim
		x[axis] = x[axis]<<1 | bit
	}
	return x
}

// Index returns the Hilbert index of the integer cell coordinates c
// (each in [0, 2^bits)) on a curve of the given order and dimension.
func Index(c [3]uint32, bits uint, dim int) uint64 {
	x := c
	axesToTranspose(&x, bits, dim)
	return interleave(x, bits, dim)
}

// Coords inverts Index: it returns the cell coordinates of Hilbert index h.
func Coords(h uint64, bits uint, dim int) [3]uint32 {
	x := deinterleave(h, bits, dim)
	transposeToAxes(&x, bits, dim)
	return x
}

// Curve maps points inside a bounding box to Hilbert keys. It is the
// object handed to the distributed sort (paper §4.1) and to the HSFC
// baseline.
type Curve struct {
	box   geom.Box
	dim   int
	bits  uint
	scale [3]float64 // per-axis multiplier into cell space
}

// NewCurve returns a curve of the default order for the box's dimension.
// Degenerate box extents (zero width) are handled by mapping every
// coordinate of that axis to cell 0.
func NewCurve(box geom.Box, dim int) *Curve {
	bits := uint(Order2D)
	if dim == 3 {
		bits = Order3D
	}
	return NewCurveOrder(box, dim, bits)
}

// NewCurveOrder returns a curve with an explicit order (bits per
// dimension). Orders above 31 (2D) / 21 (3D) would overflow uint64 keys
// and are clamped.
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

// Bits returns the curve order.
func (c *Curve) Bits() uint { return c.bits }

// Dim returns the curve dimension.
func (c *Curve) Dim() int { return c.dim }

// Cell returns the integer cell coordinates of p, clamped into the box.
func (c *Curve) Cell(p geom.Point) [3]uint32 {
	var cell [3]uint32
	maxCell := uint32(1)<<c.bits - 1
	for i := 0; i < c.dim; i++ {
		v := (p[i] - c.box.Min[i]) * c.scale[i]
		switch {
		case v <= 0 || v != v: // also catches NaN
			cell[i] = 0
		case v >= float64(maxCell):
			cell[i] = maxCell
		default:
			cell[i] = uint32(v)
		}
	}
	return cell
}

// Key returns the Hilbert index of point p.
func (c *Curve) Key(p geom.Point) uint64 {
	return Index(c.Cell(p), c.bits, c.dim)
}

// CellCenter returns the center point of the cell with Hilbert index h,
// useful for visualizing the curve and for tests.
func (c *Curve) CellCenter(h uint64) geom.Point {
	cell := Coords(h, c.bits, c.dim)
	var p geom.Point
	for i := 0; i < c.dim; i++ {
		if c.scale[i] > 0 {
			p[i] = c.box.Min[i] + (float64(cell[i])+0.5)/c.scale[i]
		} else {
			p[i] = c.box.Min[i]
		}
	}
	return p
}
