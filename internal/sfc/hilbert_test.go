package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"geographer/internal/geom"
)

// Skilling's transpose formulation ("Programming the Hilbert curve",
// 2004), bit-serial and for any dimension: the oracle the key kernels are
// pinned to. Production computes the same index only through KeysCols.

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

// scalarKey is the oracle's key of p on curve c: p clamped to its cell
// one axis at a time, then Index.
func scalarKey(c *Curve, p geom.Point) uint64 {
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
	return Index(cell, c.bits, c.dim)
}

// keys returns the production keys of pts on curve c.
func keys(c *Curve, pts ...geom.Point) []uint64 {
	cols := fillCols(c.dim, pts)
	out := make([]uint64, len(pts))
	c.KeysCols(&cols, out)
	return out
}

// cellKeys returns the production keys of the given cells on a curve of
// the given order: each cell's centre on a box of side 2^bits, whose
// cells are unit cubes, keyed by KeysCols.
func cellKeys(cells [][3]uint32, bits uint, dim int) []uint64 {
	side := float64(uint64(1) << bits)
	c := NewCurveOrder(geom.NewBox(geom.Point{}, geom.Point{side, side, side}, dim), dim, bits)
	pts := make([]geom.Point, len(cells))
	for i, cell := range cells {
		for d := 0; d < dim; d++ {
			pts[i][d] = float64(cell[d]) + 0.5
		}
	}
	return keys(c, pts...)
}

// allCells lists every cell of an order-bits curve in dim dimensions.
func allCells(bits uint, dim int) [][3]uint32 {
	side := uint32(1) << bits
	var cells [][3]uint32
	var c [3]uint32
	var walk func(axis int)
	walk = func(axis int) {
		if axis == dim {
			cells = append(cells, c)
			return
		}
		for v := uint32(0); v < side; v++ {
			c[axis] = v
			walk(axis + 1)
		}
	}
	walk(0)
	return cells
}

// The production keys of every cell are distinct, and the oracle's Coords
// maps each back to its cell.
func TestRoundTripExhaustiveSmall(t *testing.T) {
	const bits = 4
	for _, dim := range []int{1, 2, 3} {
		cells := allCells(bits, dim)
		seen := make(map[uint64]bool)
		for i, h := range cellKeys(cells, bits, dim) {
			if seen[h] {
				t.Fatalf("dim %d: duplicate key %d for cell %v", dim, h, cells[i])
			}
			seen[h] = true
			if back := Coords(h, bits, dim); back != cells[i] {
				t.Fatalf("dim %d: round trip %v -> %d -> %v", dim, cells[i], h, back)
			}
		}
	}
}

// Consecutive production keys must land in face-adjacent cells (the
// curve is continuous); this is what gives the HSFC baseline its locality.
func TestContinuityExhaustive(t *testing.T) {
	const bits = 4
	for _, dim := range []int{1, 2, 3} {
		cells := allCells(bits, dim)
		byKey := make([][3]uint32, len(cells))
		for i, h := range cellKeys(cells, bits, dim) {
			if h >= uint64(len(cells)) {
				t.Fatalf("dim %d: key %d of cell %v outside [0, %d)", dim, h, cells[i], len(cells))
			}
			byKey[h] = cells[i]
		}
		for h := 1; h < len(byKey); h++ {
			prev, cur := byKey[h-1], byKey[h]
			manhattan := 0
			for i := 0; i < dim; i++ {
				d := int(cur[i]) - int(prev[i])
				if d < 0 {
					d = -d
				}
				manhattan += d
			}
			if manhattan != 1 {
				t.Fatalf("dim %d: keys %d,%d map to cells %v,%v (manhattan %d)",
					dim, h-1, h, prev, cur, manhattan)
			}
		}
	}
}

func TestRoundTripPropertyHighOrder(t *testing.T) {
	roundTrip := func(c [3]uint32, bits uint, dim int) bool {
		return Coords(cellKeys([][3]uint32{c}, bits, dim)[0], bits, dim) == c
	}
	f1 := func(a uint32) bool {
		return roundTrip([3]uint32{a & (1<<Order2D - 1)}, Order2D, 1)
	}
	if err := quick.Check(f1, nil); err != nil {
		t.Errorf("1D: %v", err)
	}
	f2 := func(a, b uint32) bool {
		mask := uint32(1)<<Order2D - 1
		return roundTrip([3]uint32{a & mask, b & mask}, Order2D, 2)
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Errorf("2D: %v", err)
	}
	f3 := func(a, b, cc uint32) bool {
		mask := uint32(1)<<Order3D - 1
		return roundTrip([3]uint32{a & mask, b & mask, cc & mask}, Order3D, 3)
	}
	if err := quick.Check(f3, nil); err != nil {
		t.Errorf("3D: %v", err)
	}
}

func TestCurveKeyClampsOutsidePoints(t *testing.T) {
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1}, 2)
	// Outside points must not panic and must map like the nearest corner.
	k := keys(NewCurve(box, 2), geom.Point{100, -100}, geom.Point{1, 0})
	if k[0] != k[1] {
		t.Errorf("outside point key %d != clamped corner key %d", k[0], k[1])
	}
}

func TestCurveDegenerateAxis(t *testing.T) {
	// Zero-height box: all y collapse to cell 0, keys still usable.
	box := geom.NewBox(geom.Point{0, 5}, geom.Point{1, 5}, 2)
	k := keys(NewCurve(box, 2), geom.Point{0.1, 5}, geom.Point{0.9, 5})
	if k[0] == k[1] {
		t.Error("degenerate axis should still distinguish x positions")
	}
}

func TestCurveLocality(t *testing.T) {
	// Statistical locality check: pairs of nearby points should have
	// closer keys (on average) than far pairs. This is the property the
	// paper relies on ("two points whose indices on the curve are close
	// are also often close in the original space", §3.1).
	rng := rand.New(rand.NewSource(7))
	box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}, 3)
	c := NewCurve(box, 3)
	const trials = 3000
	var pts []geom.Point // p, a near q and a random r per trial
	for i := 0; i < trials; i++ {
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		q := p
		for d := 0; d < 3; d++ {
			q[d] += (rng.Float64() - 0.5) * 0.01
		}
		r := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		pts = append(pts, p, q, r)
	}
	k := keys(c, pts...)
	var nearSum, farSum float64
	for i := 0; i < len(k); i += 3 {
		nearSum += absDiff(k[i], k[i+1])
		farSum += absDiff(k[i], k[i+2])
	}
	if nearSum >= farSum/4 {
		t.Errorf("locality weak: near key distance %g vs far %g", nearSum/trials, farSum/trials)
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

// TestCellCenterInverse: the centre of the cell a point's key names (the
// oracle's Coords, mapped back through the curve's box) keys to the same
// key.
func TestCellCenterInverse(t *testing.T) {
	box := geom.NewBox(geom.Point{-2, 3}, geom.Point{4, 9}, 2)
	c := NewCurveOrder(box, 2, 10)
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{-2 + 6*rng.Float64(), 3 + 6*rng.Float64()}
	}
	k := keys(c, pts...)
	centers := make([]geom.Point, len(pts))
	for i, h := range k {
		cell := Coords(h, c.bits, c.dim)
		for d := 0; d < c.dim; d++ {
			centers[i][d] = c.box.Min[d] + (float64(cell[d])+0.5)/c.scale[d]
		}
	}
	for i, got := range keys(c, centers...) {
		if got != k[i] {
			t.Fatalf("cell centre not in the same cell: %v -> %d -> %v -> %d", pts[i], k[i], centers[i], got)
		}
	}
}

func TestOrderClamping(t *testing.T) {
	box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}, 3)
	c := NewCurveOrder(box, 3, 60) // silently clamped to Order3D
	if c.bits != Order3D {
		t.Errorf("bits = %d, want clamped %d", c.bits, Order3D)
	}
	c = NewCurveOrder(box, 3, 0)
	if c.bits != 1 {
		t.Errorf("bits = %d, want 1", c.bits)
	}
	if c.dim != 3 {
		t.Errorf("dim = %d", c.dim)
	}
	c = NewCurveOrder(geom.NewBox(geom.Point{}, geom.Point{1}, 1), 1, 60) // clamped to Order2D
	if c.bits != Order2D {
		t.Errorf("1D bits = %d, want clamped %d", c.bits, Order2D)
	}
}
