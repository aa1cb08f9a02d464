// Package geom provides the low-level geometric primitives used throughout
// Geographer: d-dimensional points stored in a flat structure-of-arrays
// layout, axis-aligned bounding boxes, and the point–box distance bounds
// needed by the pruning optimizations of the balanced k-means core
// (paper §4.3–4.4).
//
// Dimensions 2 and 3 are the supported cases, matching the paper's 2D,
// 2.5D (2D + node weights) and 3D meshes. Coordinates are always float64.
package geom

import (
	"fmt"
	"math"
)

// MaxDim is the largest supported spatial dimension.
const MaxDim = 3

// Point is a fixed-capacity coordinate vector. Only the first Dim entries
// of the containing set are meaningful; the rest are zero. Using a value
// type of fixed size keeps hot loops free of indirections and allocations.
type Point [MaxDim]float64

// Add returns p + q.
func (p Point) Add(q Point) Point {
	return Point{p[0] + q[0], p[1] + q[1], p[2] + q[2]}
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	return Point{p[0] - q[0], p[1] - q[1], p[2] - q[2]}
}

// Scale returns s·p.
func (p Point) Scale(s float64) Point {
	return Point{p[0] * s, p[1] * s, p[2] * s}
}

// Dot returns the dot product over the first dim coordinates.
func (p Point) Dot(q Point, dim int) float64 {
	s := 0.0
	for i := 0; i < dim; i++ {
		s += p[i] * q[i]
	}
	return s
}

// Dist2 returns the squared Euclidean distance between p and q in dim
// dimensions. This is the single hottest function in the repository; the
// explicit switch lets the compiler unroll both supported cases.
func Dist2(p, q Point, dim int) float64 {
	switch dim {
	case 2:
		dx := p[0] - q[0]
		dy := p[1] - q[1]
		return dx*dx + dy*dy
	case 3:
		dx := p[0] - q[0]
		dy := p[1] - q[1]
		dz := p[2] - q[2]
		return dx*dx + dy*dy + dz*dz
	default:
		s := 0.0
		for i := 0; i < dim; i++ {
			d := p[i] - q[i]
			s += d * d
		}
		return s
	}
}

// Dist returns the Euclidean distance between p and q in dim dimensions.
func Dist(p, q Point, dim int) float64 {
	return math.Sqrt(Dist2(p, q, dim))
}

// Dist2Vec returns the squared Euclidean distance between two flat
// coordinate vectors of equal length (any dimension). The axis terms
// accumulate left to right from zero, the association order of the
// Dist2 switch, so at dim ≤ 3 the result is bit-identical to Dist2.
func Dist2Vec(a, b []float64) float64 {
	s := 0.0
	for d := range a {
		t := a[d] - b[d]
		s += t * t
	}
	return s
}

// DistVec returns the Euclidean distance between two flat vectors.
func DistVec(a, b []float64) float64 { return math.Sqrt(Dist2Vec(a, b)) }

// FlatBoxInit resets a flat axis-aligned box (per-axis min and max
// slices of equal length) to the empty box, the identity for folds.
func FlatBoxInit(bmin, bmax []float64) {
	for d := range bmin {
		bmin[d] = math.Inf(1)
		bmax[d] = math.Inf(-1)
	}
}

// FlatBoxEmpty reports whether the flat box contains no points, with the
// same any-axis-inverted test as Box.Empty.
func FlatBoxEmpty(bmin, bmax []float64) bool {
	for d := range bmin {
		if bmin[d] > bmax[d] {
			return true
		}
	}
	return false
}

// FlatBoxMinDist2 returns the squared distance from the flat vector q to
// the closest point of the flat box — Box.MinDist2 for any dimension,
// with identical per-axis arithmetic and accumulation order.
func FlatBoxMinDist2(bmin, bmax, q []float64) float64 {
	s := 0.0
	for d := range q {
		var t float64
		if q[d] < bmin[d] {
			t = bmin[d] - q[d]
		} else if q[d] > bmax[d] {
			t = q[d] - bmax[d]
		}
		s += t * t
	}
	return s
}

// FlatBoxDiagonal returns the diagonal length of the flat box.
func FlatBoxDiagonal(bmin, bmax []float64) float64 {
	s := 0.0
	for d := range bmin {
		t := bmax[d] - bmin[d]
		s += t * t
	}
	return math.Sqrt(s)
}

// FlatBoxToBox packs a flat spatial bounding box (len(bmin) ≤ MaxDim
// axes) into a Box, as the space-filling curve takes it.
func FlatBoxToBox(bmin, bmax []float64) Box {
	box := Box{Dim: len(bmin)}
	copy(box.Min[:], bmin)
	copy(box.Max[:], bmax)
	return box
}

// Box is an axis-aligned bounding box. A zero Box is not valid; use
// EmptyBox and then Extend, or NewBox.
type Box struct {
	Min, Max Point
	Dim      int
}

// EmptyBox returns an inverted box of the given dimension that behaves as
// the identity for Extend/Union.
func EmptyBox(dim int) Box {
	b := Box{Dim: dim}
	for i := 0; i < dim; i++ {
		b.Min[i] = math.Inf(1)
		b.Max[i] = math.Inf(-1)
	}
	return b
}

// NewBox returns the box spanning [min, max].
func NewBox(min, max Point, dim int) Box {
	return Box{Min: min, Max: max, Dim: dim}
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool {
	for i := 0; i < b.Dim; i++ {
		if b.Min[i] > b.Max[i] {
			return true
		}
	}
	return false
}

// Extend grows the box to contain p.
func (b *Box) Extend(p Point) {
	for i := 0; i < b.Dim; i++ {
		if p[i] < b.Min[i] {
			b.Min[i] = p[i]
		}
		if p[i] > b.Max[i] {
			b.Max[i] = p[i]
		}
	}
}

// Union returns the smallest box containing both b and c.
func (b Box) Union(c Box) Box {
	out := b
	for i := 0; i < b.Dim; i++ {
		out.Min[i] = math.Min(b.Min[i], c.Min[i])
		out.Max[i] = math.Max(b.Max[i], c.Max[i])
	}
	return out
}

// Contains reports whether p lies inside the closed box.
func (b Box) Contains(p Point) bool {
	for i := 0; i < b.Dim; i++ {
		if p[i] < b.Min[i] || p[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Center returns the box midpoint.
func (b Box) Center() Point {
	var c Point
	for i := 0; i < b.Dim; i++ {
		c[i] = 0.5 * (b.Min[i] + b.Max[i])
	}
	return c
}

// Side returns the extent of the box along axis i.
func (b Box) Side(i int) float64 { return b.Max[i] - b.Min[i] }

// WidestAxis returns the axis with the largest extent.
func (b Box) WidestAxis() int {
	best, bestLen := 0, b.Side(0)
	for i := 1; i < b.Dim; i++ {
		if l := b.Side(i); l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// Diagonal returns the length of the box diagonal.
func (b Box) Diagonal() float64 {
	s := 0.0
	for i := 0; i < b.Dim; i++ {
		d := b.Side(i)
		s += d * d
	}
	return math.Sqrt(s)
}

// MinDist2 returns the squared distance from p to the closest point of the
// box (0 if p is inside). This is the sound lower bound used to sort and
// prune cluster centers against the process-local bounding box (§4.4; we
// use minDist where the paper's pseudocode prints maxDist, see DESIGN.md).
func (b Box) MinDist2(p Point) float64 {
	s := 0.0
	for i := 0; i < b.Dim; i++ {
		var d float64
		if p[i] < b.Min[i] {
			d = b.Min[i] - p[i]
		} else if p[i] > b.Max[i] {
			d = p[i] - b.Max[i]
		}
		s += d * d
	}
	return s
}

// MinDist returns the distance from p to the closest point of the box.
func (b Box) MinDist(p Point) float64 { return math.Sqrt(b.MinDist2(p)) }

// MaxDist2 returns the squared distance from p to the farthest point of
// the box.
func (b Box) MaxDist2(p Point) float64 {
	s := 0.0
	for i := 0; i < b.Dim; i++ {
		d := math.Max(math.Abs(p[i]-b.Min[i]), math.Abs(p[i]-b.Max[i]))
		s += d * d
	}
	return s
}

// MaxDist returns the distance from p to the farthest point of the box.
func (b Box) MaxDist(p Point) float64 { return math.Sqrt(b.MaxDist2(p)) }

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("Box%dD[%v..%v]", b.Dim, b.Min, b.Max)
}
