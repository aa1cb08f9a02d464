package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randCols(dim, n int, seed int64) Cols {
	rng := rand.New(rand.NewSource(seed))
	c := MakeCols(dim, n)
	v := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range v {
			v[d] = rng.Float64()
		}
		c.SetVec(i, v)
	}
	return c
}

// at returns point i of spatial columns as a Point.
func at(c *Cols, i int) Point {
	var p Point
	c.AtVec(i, p[:])
	return p
}

// TestColsRoundTrip: a store holds exactly its Dim columns — X/Y/Z alias
// the present ones, an absent axis is nil — and AtVec reads them back.
func TestColsRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		c := randCols(dim, 100, int64(dim))
		if c.Len() != 100 || len(c.Col) != dim {
			t.Fatalf("dim=%d: len %d, %d columns", dim, c.Len(), len(c.Col))
		}
		axes := [MaxDim][]float64{c.X, c.Y, c.Z}
		for d := dim; d < MaxDim; d++ {
			if axes[d] != nil {
				t.Fatalf("dim=%d: absent axis %d holds %d values, want nil", dim, d, len(axes[d]))
			}
		}
		for i := 0; i < c.Len(); i++ {
			p := at(&c, i)
			for d := 0; d < dim; d++ {
				if p[d] != c.Col[d][i] || axes[d][i] != c.Col[d][i] {
					t.Fatalf("dim=%d: point %d axis %d reads %g and %g, column holds %g", dim, i, d, p[d], axes[d][i], c.Col[d][i])
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
			want := Dist2(at(&c, i), q, dim)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("dim=%d point %d: batch %x, Dist2 %x", dim, i, out[i], want)
			}
		}
	}
}

// TestSampleBoxW: the fold equals Box.Extend plus a left-to-right weight
// sum at every dimension, and a prefix folded in pieces — the way a
// growing sample folds only the points it gained — equals one fold of
// the whole prefix bit for bit.
func TestSampleBoxW(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		const n = 200
		c := randCols(dim, n, int64(3+dim))
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.1*float64(i%7) + 0.37
		}
		want := EmptyBox(dim)
		wantW := 0.0
		for i := 0; i < n; i++ {
			want.Extend(at(&c, i))
			wantW += w[i]
		}
		bmin, bmax := make([]float64, dim), make([]float64, dim)
		FlatBoxInit(bmin, bmax)
		sumW := SampleBoxW(c.Col, w, 0, n, bmin, bmax, 0)
		pmin, pmax := make([]float64, dim), make([]float64, dim)
		FlatBoxInit(pmin, pmax)
		pieceW := 0.0
		for _, cut := range [][2]int{{0, 0}, {0, 13}, {13, 100}, {100, n}} {
			pieceW = SampleBoxW(c.Col, w, cut[0], cut[1], pmin, pmax, pieceW)
		}
		for d := 0; d < dim; d++ {
			if bmin[d] != want.Min[d] || bmax[d] != want.Max[d] || pmin[d] != bmin[d] || pmax[d] != bmax[d] {
				t.Fatalf("dim=%d axis %d: fold [%g, %g], pieces [%g, %g], want [%g, %g]",
					dim, d, bmin[d], bmax[d], pmin[d], pmax[d], want.Min[d], want.Max[d])
			}
		}
		if math.Float64bits(sumW) != math.Float64bits(wantW) || math.Float64bits(pieceW) != math.Float64bits(wantW) {
			t.Fatalf("dim=%d: weight %v / pieces %v, want %v", dim, sumW, pieceW, wantW)
		}
	}

	bmin, bmax := make([]float64, 2), make([]float64, 2)
	FlatBoxInit(bmin, bmax)
	if zw := SampleBoxW(randCols(2, 5, 1).Col, make([]float64, 5), 3, 3, bmin, bmax, 0); !FlatBoxEmpty(bmin, bmax) || zw != 0 {
		t.Fatalf("empty range: [%v, %v], %g", bmin, bmax, zw)
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
// Hamerly body on the column walk (d = 1 and beyond MaxDim) to the
// single-center walk it replaces: whatever the dimension, the block length and the order of the
// center ids, every slot blockDist2 fills holds colsDist2's bits — also
// where the sum overflows to +Inf.
func TestBlockDist2MatchesColsDist2(t *testing.T) {
	const n, k = 5, 23
	rng := rand.New(rand.NewSource(17))
	sawInf := false
	for _, dim := range []int{1, 4, 5, 7, 8, 16, 64} {
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
