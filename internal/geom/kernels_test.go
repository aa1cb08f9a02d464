package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randCols(dim, n int, seed int64) Cols {
	rng := rand.New(rand.NewSource(seed))
	c := MakeCols(dim, n)
	for i := 0; i < n; i++ {
		var p Point
		for d := 0; d < dim; d++ {
			p[d] = rng.Float64()
		}
		c.Set(i, p)
	}
	return c
}

func TestColsRoundTrip(t *testing.T) {
	for _, dim := range []int{2, 3} {
		c := randCols(dim, 100, int64(dim))
		if c.Len() != 100 {
			t.Fatalf("len %d", c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			p := c.At(i)
			for d := dim; d < MaxDim; d++ {
				if p[d] != 0 {
					t.Fatalf("dim=%d: unused axis %d of point %d is %g", dim, d, i, p[d])
				}
			}
		}
	}
}

func TestDist2BatchMatchesDist2(t *testing.T) {
	for _, dim := range []int{2, 3} {
		c := randCols(dim, 500, int64(10+dim))
		q := Point{0.3, 0.7, 0.1}
		if dim == 2 {
			q[2] = 0
		}
		out := make([]float64, c.Len())
		Dist2Batch(dim, c.X, c.Y, c.Z, q, out)
		for i := range out {
			want := Dist2(c.At(i), q, dim)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("dim=%d point %d: batch %x, Dist2 %x", dim, i, out[i], want)
			}
		}
	}
}

func TestSampleBoxW(t *testing.T) {
	c := randCols(2, 200, 3)
	w := make([]float64, 200)
	idx := make([]int32, 0, 100)
	for i := range w {
		w[i] = float64(i%7) + 0.5
		if i%2 == 0 {
			idx = append(idx, int32(i))
		}
	}
	bb, sumW := SampleBoxW(2, c.X, c.Y, c.Z, w, idx)

	want := EmptyBox(2)
	wantW := 0.0
	for _, i := range idx {
		want.Extend(c.At(int(i)))
		wantW += w[i]
	}
	if bb.Min != want.Min || bb.Max != want.Max || sumW != wantW {
		t.Fatalf("got (%v, %g), want (%v, %g)", bb, sumW, want, wantW)
	}

	empty, zw := SampleBoxW(2, c.X, c.Y, c.Z, w, nil)
	if !empty.Empty() || zw != 0 {
		t.Fatalf("empty sample: %v, %g", empty, zw)
	}
}

// BenchmarkDist2Batch is the stable baseline for the raw SoA distance
// throughput the assignment kernels build on.
func BenchmarkDist2Batch(b *testing.B) {
	for _, bc := range []struct {
		name string
		dim  int
	}{{"2D", 2}, {"3D", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			const n = 100_000
			c := randCols(bc.dim, n, 1)
			out := make([]float64, n)
			q := Point{0.5, 0.5, 0.5}
			b.SetBytes(int64(n * bc.dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Dist2Batch(bc.dim, c.X, c.Y, c.Z, q, out)
			}
		})
	}
}

// TestBlockDist2MatchesColsDist2 pins the blocked evaluation of the
// Hamerly body beyond MaxDim to the single-center column walk it
// replaces: whatever the dimension, the block length and the order of the
// center ids, every slot blockDist2 fills holds colsDist2's bits — also
// where the sum overflows to +Inf.
func TestBlockDist2MatchesColsDist2(t *testing.T) {
	const n, k = 5, 23
	rng := rand.New(rand.NewSource(17))
	sawInf := false
	for _, dim := range []int{4, 5, 7, 8, 16, 64} {
		for _, scale := range []float64{1, 1e-160, 1e150, 1e154} { // 1e154² overflows within a few axes
			pts, ctr := MakeCols(dim, n), MakeCols(dim, k)
			for _, c := range []Cols{pts, ctr} {
				for _, col := range c.Col {
					for i := range col {
						col[i] = rng.NormFloat64() * scale
					}
				}
			}
			q := make([]float64, dim)
			var out [blockLen]float64 // reused: a slot must not depend on what it held
			for length := 1; length <= blockLen; length++ {
				strided, descending, shuffled := make([]int32, length), make([]int32, length), make([]int32, length)
				perm := rng.Perm(k)
				for j := range strided {
					strided[j] = int32(j * (k - 1) / blockLen)
					descending[j] = int32(k - 1 - 2*j)
					shuffled[j] = int32(perm[j])
				}
				for name, ids := range map[string][]int32{"strided": strided, "descending": descending, "shuffled": shuffled} {
					for i := int32(0); i < n; i++ {
						gatherPoint(pts.Col, i, q)
						blockDist2(q, ctr.Col, ids, &out)
						for j, b := range ids {
							want := colsDist2(pts.Col, ctr.Col, i, b)
							if math.Float64bits(out[j]) != math.Float64bits(want) {
								t.Fatalf("dim=%d scale=%g %s ids=%v point %d: slot %d = %x, colsDist2 %x",
									dim, scale, name, ids, i, j, out[j], want)
							}
							sawInf = sawInf || math.IsInf(want, 1)
						}
					}
				}
			}
		}
	}
	if !sawInf {
		t.Fatal("no sum overflowed to +Inf; the largest scale should")
	}
}

// TestKernelSizesItsOwnScratch runs the Hamerly pass beyond MaxDim on a
// kernel built without point scratch (what a caller outside core does)
// and on one handed a buffer: same assignments, bounds, weights and
// counters, and the first keeps the buffer it grew.
func TestKernelSizesItsOwnScratch(t *testing.T) {
	const dim, n, k = 8, 300, 11
	bare, idx := fuzzKernel(dim, n, k, 5, 0.5, 0.5, false)
	handed, _ := fuzzKernel(dim, n, k, 5, 0.5, 0.5, false)
	handed.Q = make([]float64, dim+3)
	bare.RunBounded(dim, idx, true)
	handed.RunBounded(dim, idx, true)
	if len(bare.Q) != dim || len(handed.Q) != dim+3 {
		t.Fatalf("scratch lengths %d and %d, want %d and %d", len(bare.Q), len(handed.Q), dim, dim+3)
	}
	for i := range bare.A {
		if bare.A[i] != handed.A[i] || !sameBits(bare.Ub[i], handed.Ub[i]) || !sameBits(bare.Lb[i], handed.Lb[i]) {
			t.Fatalf("point %d: (%d, %x, %x) without scratch, (%d, %x, %x) with",
				i, bare.A[i], bare.Ub[i], bare.Lb[i], handed.A[i], handed.Ub[i], handed.Lb[i])
		}
	}
	for b := range bare.LocalW {
		if !sameBits(bare.LocalW[b], handed.LocalW[b]) {
			t.Fatalf("LocalW[%d] = %x without scratch, %x with", b, bare.LocalW[b], handed.LocalW[b])
		}
	}
	if bare.DistCalcs != handed.DistCalcs || bare.Skips != handed.Skips || bare.Breaks != handed.Breaks {
		t.Fatalf("counters (%d,%d,%d) without scratch, (%d,%d,%d) with",
			bare.DistCalcs, bare.Skips, bare.Breaks, handed.DistCalcs, handed.Skips, handed.Breaks)
	}
}
