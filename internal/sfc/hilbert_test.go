package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"geographer/internal/geom"
)

// Index and Coords must be mutual inverses for every cell.
func TestRoundTripExhaustiveSmall(t *testing.T) {
	for _, dim := range []int{2, 3} {
		bits := uint(4)
		side := uint32(1) << bits
		seen := make(map[uint64]bool)
		var c [3]uint32
		var walk func(axis int)
		walk = func(axis int) {
			if axis == dim {
				h := Index(c, bits, dim)
				if seen[h] {
					t.Fatalf("dim %d: duplicate index %d for cell %v", dim, h, c)
				}
				seen[h] = true
				back := Coords(h, bits, dim)
				for i := 0; i < dim; i++ {
					if back[i] != c[i] {
						t.Fatalf("dim %d: roundtrip %v -> %d -> %v", dim, c, h, back)
					}
				}
				return
			}
			for v := uint32(0); v < side; v++ {
				c[axis] = v
				walk(axis + 1)
			}
		}
		walk(0)
		want := 1
		for i := 0; i < dim; i++ {
			want *= int(side)
		}
		if len(seen) != want {
			t.Fatalf("dim %d: %d distinct indices, want %d (bijectivity)", dim, len(seen), want)
		}
	}
}

// Consecutive Hilbert indices must map to face-adjacent cells (the curve
// is continuous); this is what gives the HSFC baseline its locality.
func TestContinuityExhaustive(t *testing.T) {
	for _, dim := range []int{2, 3} {
		bits := uint(4)
		total := uint64(1) << (bits * uint(dim))
		prev := Coords(0, bits, dim)
		for h := uint64(1); h < total; h++ {
			cur := Coords(h, bits, dim)
			manhattan := 0
			for i := 0; i < dim; i++ {
				d := int(cur[i]) - int(prev[i])
				if d < 0 {
					d = -d
				}
				manhattan += d
			}
			if manhattan != 1 {
				t.Fatalf("dim %d: indices %d,%d map to cells %v,%v (manhattan %d)",
					dim, h-1, h, prev, cur, manhattan)
			}
			prev = cur
		}
	}
}

func TestRoundTripPropertyHighOrder(t *testing.T) {
	f2 := func(a, b uint32) bool {
		mask := uint32(1)<<Order2D - 1
		c := [3]uint32{a & mask, b & mask, 0}
		h := Index(c, Order2D, 2)
		back := Coords(h, Order2D, 2)
		return back[0] == c[0] && back[1] == c[1]
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Errorf("2D: %v", err)
	}
	f3 := func(a, b, cc uint32) bool {
		mask := uint32(1)<<Order3D - 1
		c := [3]uint32{a & mask, b & mask, cc & mask}
		h := Index(c, Order3D, 3)
		back := Coords(h, Order3D, 3)
		return back == c
	}
	if err := quick.Check(f3, nil); err != nil {
		t.Errorf("3D: %v", err)
	}
}

func TestCurveKeyClampsOutsidePoints(t *testing.T) {
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1}, 2)
	c := NewCurve(box, 2)
	inside := c.Key(geom.Point{0.5, 0.5})
	_ = inside
	// Outside points must not panic and must map like the nearest corner.
	far := c.Key(geom.Point{100, -100})
	corner := c.Key(geom.Point{1, 0})
	if far != corner {
		t.Errorf("outside point key %d != clamped corner key %d", far, corner)
	}
}

func TestCurveDegenerateAxis(t *testing.T) {
	// Zero-height box: all y collapse to cell 0, keys still usable.
	box := geom.NewBox(geom.Point{0, 5}, geom.Point{1, 5}, 2)
	c := NewCurve(box, 2)
	k1 := c.Key(geom.Point{0.1, 5})
	k2 := c.Key(geom.Point{0.9, 5})
	if k1 == k2 {
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
	var nearSum, farSum float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		q := p
		for d := 0; d < 3; d++ {
			q[d] += (rng.Float64() - 0.5) * 0.01
		}
		r := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		kp, kq, kr := c.Key(p), c.Key(q), c.Key(r)
		nearSum += absDiff(kp, kq)
		farSum += absDiff(kp, kr)
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

func TestCellCenterInverse(t *testing.T) {
	box := geom.NewBox(geom.Point{-2, 3}, geom.Point{4, 9}, 2)
	c := NewCurveOrder(box, 2, 10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := geom.Point{-2 + 6*rng.Float64(), 3 + 6*rng.Float64()}
		h := c.Key(p)
		center := c.CellCenter(h)
		// The cell center must map back to the same key.
		if got := c.Key(center); got != h {
			t.Fatalf("CellCenter not in same cell: %v -> %d -> %v -> %d", p, h, center, got)
		}
	}
}

func TestOrderClamping(t *testing.T) {
	box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}, 3)
	c := NewCurveOrder(box, 3, 60) // silently clamped to Order3D
	if c.Bits() != Order3D {
		t.Errorf("bits = %d, want clamped %d", c.Bits(), Order3D)
	}
	c = NewCurveOrder(box, 3, 0)
	if c.Bits() != 1 {
		t.Errorf("bits = %d, want 1", c.Bits())
	}
	if c.Dim() != 3 {
		t.Errorf("dim = %d", c.Dim())
	}
}

func BenchmarkKey2D(b *testing.B) {
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1}, 2)
	c := NewCurve(box, 2)
	p := geom.Point{0.637, 0.281}
	var s uint64
	for i := 0; i < b.N; i++ {
		s += c.Key(p)
	}
	_ = s
}

func BenchmarkKey3D(b *testing.B) {
	box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}, 3)
	c := NewCurve(box, 3)
	p := geom.Point{0.637, 0.281, 0.913}
	var s uint64
	for i := 0; i < b.N; i++ {
		s += c.Key(p)
	}
	_ = s
}
