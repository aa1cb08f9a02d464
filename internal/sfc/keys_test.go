package sfc

import (
	"math"
	"math/rand"
	"testing"

	"geographer/internal/geom"
)

// fillCols builds a Cols store holding the given points.
func fillCols(dim int, pts []geom.Point) geom.Cols {
	cols := geom.MakeCols(dim, len(pts))
	for i, p := range pts {
		cols.SetVec(i, p[:])
	}
	return cols
}

// hostileBatch generates points exercising every Cell clamp branch for a
// box: interior points, points outside on each side, exactly-on-boundary
// points, NaN and ±Inf coordinates, and huge magnitudes.
func hostileBatch(rng *rand.Rand, box geom.Box, dim, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		var p geom.Point
		for d := 0; d < dim; d++ {
			side := box.Side(d)
			switch rng.Intn(10) {
			case 0:
				p[d] = box.Min[d] - rng.Float64()*(1+math.Abs(side)) // below
			case 1:
				p[d] = box.Max[d] + rng.Float64()*(1+math.Abs(side)) // above
			case 2:
				p[d] = box.Min[d] // exact lower corner
			case 3:
				p[d] = box.Max[d] // exact upper corner
			case 4:
				p[d] = math.NaN()
			case 5:
				p[d] = math.Inf(1 - 2*rng.Intn(2))
			case 6:
				p[d] = (rng.Float64() - 0.5) * 1e18 // huge magnitude
			default:
				p[d] = box.Min[d] + rng.Float64()*side // interior
			}
		}
		pts[i] = p
	}
	return pts
}

// TestKeysColsMatchesKey pins the batch kernel bit-identical to
// Skilling's scalar key over random boxes, degenerate (zero-extent) axes,
// NaN/Inf and out-of-box coordinates, every dimension and several curve
// orders.
func TestKeysColsMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	boxes := func(dim int) []geom.Box {
		unit := geom.NewBox(geom.Point{}, geom.Point{1, 1, 1}, dim)
		shifted := geom.NewBox(geom.Point{-3.5, 100, -0.25}, geom.Point{2.5, 108, 7.75}, dim)
		tiny := geom.NewBox(geom.Point{1e-9, -1e-9, 0}, geom.Point{2e-9, 1e-9, 1e-12}, dim)
		degenX := geom.NewBox(geom.Point{5, 0, 0}, geom.Point{5, 1, 1}, dim)   // zero-extent axis 0
		degenAll := geom.NewBox(geom.Point{2, 2, 2}, geom.Point{2, 2, 2}, dim) // all axes degenerate
		inverted := geom.NewBox(geom.Point{1, 1, 1}, geom.Point{0, 0, 0}, dim) // negative sides
		huge := geom.NewBox(geom.Point{-1e15, -1e15, -1e15}, geom.Point{1e15, 1e15, 1e15}, dim)
		return []geom.Box{unit, shifted, tiny, degenX, degenAll, inverted, huge}
	}
	for _, dim := range []int{1, 2, 3} {
		orders := []uint{1, 2, 3, 7, 16, Order3D, Order2D} // above-max orders are clamped by NewCurveOrder
		for _, box := range boxes(dim) {
			for _, bits := range orders {
				c := NewCurveOrder(box, dim, bits)
				pts := hostileBatch(rng, box, dim, 300)
				cols := fillCols(dim, pts)
				got := make([]uint64, len(pts))
				c.KeysCols(&cols, got)
				for i, p := range pts {
					if want := scalarKey(c, p); got[i] != want {
						t.Fatalf("dim=%d bits=%d box=%v point %v: KeysCols %x, oracle %x",
							dim, c.bits, box, p, got[i], want)
					}
				}
				// Every worker count must produce the identical array.
				for _, workers := range []int{2, 3, 16} {
					par := make([]uint64, len(pts))
					c.KeysColsParallel(&cols, par, workers, nil)
					for i := range par {
						if par[i] != got[i] {
							t.Fatalf("dim=%d bits=%d workers=%d: key %d differs", dim, c.bits, workers, i)
						}
					}
				}
			}
		}
	}
}

// maskIndex2D is the key kernel the tables replaced, kept as their oracle:
// Index(c, bits, 2) with the transpose loop unrolled branch-free, one mask
// iteration per bit position.
func maskIndex2D(x0, x1 uint32, bits uint) uint64 {
	for s := int(bits) - 1; s >= 1; s-- {
		q := uint32(1) << uint(s)
		p := q - 1
		// Axis 0: a set bit q inverts the low bits of x0 (the swap with
		// itself is a no-op on the other branch).
		x0 ^= p & -(x0 >> uint(s) & 1)
		// Axis 1: set bit ⇒ invert x0's low bits; clear bit ⇒ swap the
		// low bits of x0 and x1.
		m := -(x1 >> uint(s) & 1)
		t := (x0 ^ x1) & p &^ m
		x0 ^= (p & m) | t
		x1 ^= t
	}
	x1 ^= x0 // Gray encode
	t := suffixParity(x1)
	x0 ^= t
	x1 ^= t
	return spread2(uint64(x0))<<1 | spread2(uint64(x1))
}

// maskIndex3D is the same for Index(c, bits, 3).
func maskIndex3D(x0, x1, x2 uint32, bits uint) uint64 {
	for s := int(bits) - 1; s >= 1; s-- {
		q := uint32(1) << uint(s)
		p := q - 1
		x0 ^= p & -(x0 >> uint(s) & 1)
		m1 := -(x1 >> uint(s) & 1)
		t1 := (x0 ^ x1) & p &^ m1
		x0 ^= (p & m1) | t1
		x1 ^= t1
		m2 := -(x2 >> uint(s) & 1)
		t2 := (x0 ^ x2) & p &^ m2
		x0 ^= (p & m2) | t2
		x2 ^= t2
	}
	x1 ^= x0 // Gray encode
	x2 ^= x1
	t := suffixParity(x2)
	x0 ^= t
	x1 ^= t
	x2 ^= t
	return spread3(uint64(x0))<<2 | spread3(uint64(x1))<<1 | spread3(uint64(x2))
}

// TestTransducerStates pins the size of the two state machines: the
// transforms the transpose loop can accumulate below a bit position are the
// full groups its generators span.
func TestTransducerStates(t *testing.T) {
	if got := len(closeStates(2)); got != 8 {
		t.Errorf("2D transducer has %d states, want 8", got)
	}
	if got := len(closeStates(3)); got != 48 {
		t.Errorf("3D transducer has %d states, want 48", got)
	}
}

// TestTableIndexMatchesMaskLoop compares the table-driven kernels with the
// mask loop they replaced on random cells at every curve order — every
// split of an order into leading single bits and whole chunks — and with
// Skilling's scalar Index on a subset.
func TestTableIndexMatchesMaskLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for bits := uint(1); bits <= Order2D; bits++ {
		mask := uint32(1)<<bits - 1
		for trial := 0; trial < 20000; trial++ {
			x0, x1 := rng.Uint32()&mask, rng.Uint32()&mask
			if trial < 4 { // the corners first
				x0, x1 = mask*uint32(trial&1), mask*uint32(trial>>1)
			}
			got, want := index2D(x0, x1, bits), maskIndex2D(x0, x1, bits)
			if got != want {
				t.Fatalf("2D bits=%d cell (%#x, %#x): table %#x, mask loop %#x", bits, x0, x1, got, want)
			}
			if trial < 200 {
				if ref := Index([3]uint32{x0, x1}, bits, 2); got != ref {
					t.Fatalf("2D bits=%d cell (%#x, %#x): table %#x, Index %#x", bits, x0, x1, got, ref)
				}
			}
		}
	}
	for bits := uint(1); bits <= Order3D; bits++ {
		mask := uint32(1)<<bits - 1
		for trial := 0; trial < 20000; trial++ {
			x0, x1, x2 := rng.Uint32()&mask, rng.Uint32()&mask, rng.Uint32()&mask
			if trial < 8 {
				x0, x1, x2 = mask*uint32(trial&1), mask*uint32(trial>>1&1), mask*uint32(trial>>2)
			}
			got, want := index3D(x0, x1, x2, bits), maskIndex3D(x0, x1, x2, bits)
			if got != want {
				t.Fatalf("3D bits=%d cell (%#x, %#x, %#x): table %#x, mask loop %#x", bits, x0, x1, x2, got, want)
			}
			if trial < 200 {
				if ref := Index([3]uint32{x0, x1, x2}, bits, 3); got != ref {
					t.Fatalf("3D bits=%d cell (%#x, %#x, %#x): table %#x, Index %#x", bits, x0, x1, x2, got, ref)
				}
			}
		}
	}
}

// TestKeysColsNilUnusedColumns checks a 2D store without a Z column and a
// 1D store with X alone work (the SoA redistribution only carries Dim
// columns).
func TestKeysColsNilUnusedColumns(t *testing.T) {
	c := NewCurve(geom.NewBox(geom.Point{}, geom.Point{1, 1}, 2), 2)
	cols := geom.Cols{Dim: 2, X: []float64{0.25, 0.75}, Y: []float64{0.5, 0.1}}
	got := make([]uint64, 2)
	c.KeysCols(&cols, got)
	for i := 0; i < 2; i++ {
		if want := scalarKey(c, geom.Point{cols.X[i], cols.Y[i]}); got[i] != want {
			t.Fatalf("nil-Z store: key %d = %x, want %x", i, got[i], want)
		}
	}
	c = NewCurve(geom.NewBox(geom.Point{}, geom.Point{1}, 1), 1)
	cols = geom.Cols{Dim: 1, X: []float64{0.25, 0.75}}
	c.KeysCols(&cols, got)
	for i := 0; i < 2; i++ {
		if want := scalarKey(c, geom.Point{cols.X[i]}); got[i] != want {
			t.Fatalf("X-only store: key %d = %x, want %x", i, got[i], want)
		}
	}
}

// TestKeysColsLargeParallel crosses the chunk grid with worker counts on
// a size large enough to use every chunk.
func TestKeysColsLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := geom.NewBox(geom.Point{}, geom.Point{1, 1, 1}, 3)
	c := NewCurve(box, 3)
	pts := hostileBatch(rng, box, 3, 20000)
	cols := fillCols(3, pts)
	want := make([]uint64, len(pts))
	c.KeysCols(&cols, want)
	for _, workers := range []int{1, 2, 4, 7, 16, 64} {
		got := make([]uint64, len(pts))
		c.KeysColsParallel(&cols, got, workers, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: key %d differs", workers, i)
			}
		}
	}
}

// FuzzKeysColsMatchesKey fuzzes single points through the batch kernel
// against Skilling's scalar key across dimensions (1 + dimRaw%3) and
// orders.
func FuzzKeysColsMatchesKey(f *testing.F) {
	f.Add(0.5, 0.5, 0.5, 1.0, 1.0, 1.0, uint8(31), uint8(1))
	f.Add(-2.0, 1e300, math.NaN(), 0.0, 0.0, 5.0, uint8(21), uint8(2))
	f.Add(math.Inf(1), math.Inf(-1), 0.0, 1.0, 0.0, 1.0, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, x, y, z, sx, sy, sz float64, bitsRaw, dimRaw uint8) {
		dim := 1 + int(dimRaw%3)
		box := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{sx, sy, sz}, dim)
		c := NewCurveOrder(box, dim, uint(bitsRaw%33)+1)
		var p geom.Point
		copy(p[:dim], []float64{x, y, z})
		if got, want := keys(c, p)[0], scalarKey(c, p); got != want {
			t.Fatalf("dim=%d bits=%d p=%v: batch %x scalar %x", dim, c.bits, p, got, want)
		}
	})
}

func benchmarkKeys(b *testing.B, dim int) {
	rng := rand.New(rand.NewSource(7))
	box := geom.NewBox(geom.Point{}, geom.Point{1, 1, 1}, dim)
	c := NewCurve(box, dim)
	const n = 20000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	cols := fillCols(dim, pts)
	out := make([]uint64, n)
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(int64(n) * 8 * int64(dim))
		for i := 0; i < b.N; i++ {
			c.KeysCols(&cols, out)
		}
	})
	b.Run("batch-parallel", func(b *testing.B) {
		b.SetBytes(int64(n) * 8 * int64(dim))
		for i := 0; i < b.N; i++ {
			c.KeysColsParallel(&cols, out, 4, nil)
		}
	})
}

// BenchmarkHilbertKeys2D tracks the 2D ingest key throughput.
func BenchmarkHilbertKeys2D(b *testing.B) { benchmarkKeys(b, 2) }

// BenchmarkHilbertKeys3D tracks the 3D ingest key throughput.
func BenchmarkHilbertKeys3D(b *testing.B) { benchmarkKeys(b, 3) }
