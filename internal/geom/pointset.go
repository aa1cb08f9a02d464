package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite is the error (wrapped with the offending position; test
// with errors.Is) PointSet.Validate returns for values the partitioners
// have no defined behaviour on: a NaN or ±Inf coordinate, or a NaN, ±Inf
// or negative weight.
var ErrNonFinite = errors.New("geom: non-finite coordinate or non-finite/negative weight")

// PointSet is a weighted set of points in Dim dimensions, the common input
// type of all partitioners in this repository (paper §4: "The input for
// k-means commonly consists of a set of points P ... We also accept ... an
// optional weight function w : P → R+").
//
// Coordinates are stored flat (structure-of-arrays, stride Dim) for cache
// friendliness; Weights may be nil, meaning unit weights.
type PointSet struct {
	Dim    int
	Coords []float64 // len = N*Dim
	Weight []float64 // len = N, or nil for unit weights
}

// NewPointSet allocates an empty point set with capacity for n points.
func NewPointSet(dim, n int) *PointSet {
	return &PointSet{Dim: dim, Coords: make([]float64, 0, n*dim)}
}

// Len returns the number of points.
func (ps *PointSet) Len() int {
	if ps.Dim == 0 {
		return 0
	}
	return len(ps.Coords) / ps.Dim
}

// At returns point i as a Point value.
func (ps *PointSet) At(i int) Point {
	var p Point
	base := i * ps.Dim
	for d := 0; d < ps.Dim; d++ {
		p[d] = ps.Coords[base+d]
	}
	return p
}

// Set overwrites point i.
func (ps *PointSet) Set(i int, p Point) {
	base := i * ps.Dim
	for d := 0; d < ps.Dim; d++ {
		ps.Coords[base+d] = p[d]
	}
}

// Append adds a point (and weight w, ignored when the set is unweighted
// and w == 1).
func (ps *PointSet) Append(p Point, w float64) {
	for d := 0; d < ps.Dim; d++ {
		ps.Coords = append(ps.Coords, p[d])
	}
	if ps.Weight != nil {
		ps.Weight = append(ps.Weight, w)
	} else if w != 1 {
		// Materialize unit weights lazily on first non-unit weight.
		n := ps.Len() - 1
		ps.Weight = make([]float64, n, n+1)
		for i := range ps.Weight {
			ps.Weight[i] = 1
		}
		ps.Weight = append(ps.Weight, w)
	}
}

// W returns the weight of point i (1 for unweighted sets).
func (ps *PointSet) W(i int) float64 {
	if ps.Weight == nil {
		return 1
	}
	return ps.Weight[i]
}

// TotalWeight returns the sum of all point weights.
func (ps *PointSet) TotalWeight() float64 {
	if ps.Weight == nil {
		return float64(ps.Len())
	}
	s := 0.0
	for _, w := range ps.Weight {
		s += w
	}
	return s
}

// Bounds returns the bounding box of all points.
func (ps *PointSet) Bounds() Box {
	b := EmptyBox(ps.Dim)
	n := ps.Len()
	for i := 0; i < n; i++ {
		b.Extend(ps.At(i))
	}
	return b
}

// Clone returns a deep copy.
func (ps *PointSet) Clone() *PointSet {
	out := &PointSet{Dim: ps.Dim, Coords: append([]float64(nil), ps.Coords...)}
	if ps.Weight != nil {
		out.Weight = append([]float64(nil), ps.Weight...)
	}
	return out
}

// Subset returns a new point set holding the points with the given indices.
func (ps *PointSet) Subset(idx []int) *PointSet {
	out := NewPointSet(ps.Dim, len(idx))
	if ps.Weight != nil {
		out.Weight = make([]float64, 0, len(idx))
	}
	for _, i := range idx {
		out.Coords = append(out.Coords, ps.Coords[i*ps.Dim:(i+1)*ps.Dim]...)
		if ps.Weight != nil {
			out.Weight = append(out.Weight, ps.Weight[i])
		}
	}
	return out
}

// Validate checks structural invariants and that every value is usable:
// coordinates finite, weights finite and non-negative (ErrNonFinite
// otherwise). Dimensions beyond MaxDim are structurally valid
// (feature-space clustering through the column-walking kernels);
// consumers that are inherently spatial — meshes, space-filling curves,
// the At/Set Point accessors — must enforce Dim ≤ MaxDim themselves.
func (ps *PointSet) Validate() error {
	if ps.Dim < 1 {
		return fmt.Errorf("geom: dimension %d out of range (must be ≥ 1)", ps.Dim)
	}
	if len(ps.Coords)%ps.Dim != 0 {
		return fmt.Errorf("geom: %d coordinates not divisible by dim %d", len(ps.Coords), ps.Dim)
	}
	if ps.Weight != nil && len(ps.Weight) != ps.Len() {
		return fmt.Errorf("geom: %d weights for %d points", len(ps.Weight), ps.Len())
	}
	for i, x := range ps.Coords {
		if !(math.Abs(x) <= math.MaxFloat64) {
			return fmt.Errorf("%w: coordinate %g at point %d, axis %d", ErrNonFinite, x, i/ps.Dim, i%ps.Dim)
		}
	}
	for i, w := range ps.Weight {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("%w: weight %g at point %d", ErrNonFinite, w, i)
		}
	}
	return nil
}
