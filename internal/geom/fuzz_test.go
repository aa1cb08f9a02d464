package geom

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports float equality at the bit level, with any-NaN pairs
// considered equal (NaN payloads are not portable across expression
// shapes; the kernels only promise identical classification).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzGenericDist2 fuzzes the strided-vector distance against the
// specialized Point expression, including NaN and ±Inf coordinates: for
// finite inputs the two must agree bit for bit (the generic kernels'
// foundational invariant), and NaN must map to NaN.
func FuzzGenericDist2(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 3.0, 4.0, 0.0, false)
	f.Add(1e300, -1e300, 0.5, math.NaN(), 2.0, -2.0, true)
	f.Add(math.Inf(1), 1.0, 2.0, math.Inf(-1), 1.0, 2.0, true)
	f.Add(0.1, 0.2, 0.3, 0.1, 0.2, 0.3, true) // coincident
	f.Fuzz(func(t *testing.T, x0, x1, x2, y0, y1, y2 float64, threeD bool) {
		dim := 2
		if threeD {
			dim = 3
		}
		p := Point{x0, x1, x2}
		q := Point{y0, y1, y2}
		a := []float64{x0, x1, x2}[:dim]
		b := []float64{y0, y1, y2}[:dim]
		want := Dist2(p, q, dim)
		got := Dist2Vec(a, b)
		if !sameBits(got, want) {
			t.Fatalf("dim=%d: Dist2Vec %x, Dist2 %x", dim, got, want)
		}
		if got2 := DistVec(a, b); !sameBits(got2, Dist(p, q, dim)) {
			t.Fatalf("dim=%d: DistVec %x, Dist %x", dim, got2, Dist(p, q, dim))
		}

		// Degenerate (possibly inverted or NaN) box: the flat min-dist
		// must match the Box method bit for bit.
		box := NewBox(p, q, dim)
		if got3 := FlatBoxMinDist2(a, b, a); !sameBits(got3, box.MinDist2(p)) {
			t.Fatalf("dim=%d: FlatBoxMinDist2 %x, Box.MinDist2 %x", dim, got3, box.MinDist2(p))
		}
	})
}

// fuzzKernel builds a ready-to-run AssignKernel over n random points and
// k centers in dim dimensions, with the two fuzz-controlled coordinates
// injected into point 0 and all of point 1 copied onto point 2
// (coincident pair). Returns the kernel and the full-sample index list.
func fuzzKernel(dim, n, k int, seed int64, inject0, inject1 float64, elkan bool) (*AssignKernel, []int32) {
	rng := rand.New(rand.NewSource(seed))
	pts := MakeCols(dim, n)
	ctr := MakeCols(dim, k)
	w := make([]float64, n)
	vec := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range vec {
			vec[d] = rng.Float64() * 4
		}
		pts.SetVec(i, vec)
		w[i] = 0.5 + rng.Float64()
	}
	pts.Col[0][0] = inject0
	pts.Col[dim-1][0] = inject1
	if n > 2 {
		pts.AtVec(1, vec)
		pts.SetVec(2, vec)
	}
	invInf2 := make([]float64, k)
	order := make([]int32, k)
	distBB2 := make([]float64, k)
	bmin := make([]float64, dim)
	bmax := make([]float64, dim)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	FlatBoxInit(bmin, bmax)
	SampleBoxW(pts.Col, w, 0, n, bmin, bmax, 0)
	for b := 0; b < k; b++ {
		for d := range vec {
			vec[d] = rng.Float64() * 4
		}
		ctr.SetVec(b, vec)
		inf := 0.5 + 1.5*rng.Float64()
		invInf2[b] = (1 / inf) * (1 / inf)
		order[b] = int32(b)
		distBB2[b] = FlatBoxMinDist2(bmin, bmax, vec) * invInf2[b]
	}
	for i := 1; i < k; i++ { // sort the pruning order
		for j := i; j > 0 && distBB2[order[j-1]] > distBB2[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	kr := &AssignKernel{
		PX: pts.X, PY: pts.Y, PZ: pts.Z, W: w,
		CX: ctr.X, CY: ctr.Y, CZ: ctr.Z,
		PC: pts.Col, CC: ctr.Col,
		InvInf2: invInf2,
		Order:   order, DistBB2: distBB2, Prune: true,
		K:      k,
		A:      make([]int32, n),
		Ub:     make([]float64, n),
		Lb:     make([]float64, n),
		LocalW: make([]float64, k),
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			kr.A[i] = -1
			kr.Ub[i] = math.Inf(1)
		} else {
			kr.A[i] = int32(rng.Intn(k))
			kr.Ub[i] = rng.Float64()
			kr.Lb[i] = rng.Float64()
		}
	}
	if elkan {
		kr.Lbk = make([]float64, n*k)
		for i := range kr.Lbk {
			kr.Lbk[i] = rng.Float64() - 0.1
		}
	}
	return kr, idx
}

// FuzzGenericKernelAssign throws adversarial inputs — NaN/Inf
// coordinates, coincident points, k > n, degenerate boxes — at the
// assignment bodies in every arm of their distance switch and checks the
// structural invariants: no panic, every visited point ends with an
// assignment in [0, k), counters non-negative and bounded by n·k. (The
// differential half — same hostile state against the scalar reference —
// lives with the reference: core.FuzzKernelAssignMatchesReference.)
func FuzzGenericKernelAssign(f *testing.F) {
	f.Add(int64(1), 0.5, 0.5, uint8(40), uint8(5), uint8(2), uint8(0))
	f.Add(int64(2), math.NaN(), math.Inf(1), uint8(3), uint8(7), uint8(3), uint8(1)) // k > n
	f.Add(int64(3), math.Inf(-1), 1e300, uint8(60), uint8(4), uint8(8), uint8(2))
	f.Add(int64(4), 0.0, 0.0, uint8(1), uint8(1), uint8(16), uint8(0))
	f.Add(int64(5), 0.5, 2.0, uint8(50), uint8(9), uint8(0), uint8(1)) // d = 1: Y and Z are nil
	f.Add(int64(6), 1.5, 0.5, uint8(50), uint8(9), uint8(1), uint8(2)) // d = 2: Z is nil
	f.Fuzz(func(t *testing.T, seed int64, inj0, inj1 float64, nRaw, kRaw, dimRaw, modeRaw uint8) {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%20 + 1
		dims := []int{1, 2, 3, 4, 8, 16}
		dim := dims[int(dimRaw)%len(dims)]
		mode := int(modeRaw) % 3 // 0 lloyd, 1 hamerly, 2 elkan
		kr, idx := fuzzKernel(dim, n, k, seed, inj0, inj1, mode == 2)
		if mode == 2 {
			kr.RunElkan(idx)
		} else {
			kr.RunBounded(dim, idx, mode == 1)
		}
		for i, a := range kr.A {
			if a < 0 || a >= int32(k) {
				t.Fatalf("dim=%d mode=%d: A[%d] = %d out of range [0,%d)", dim, mode, i, a, k)
			}
		}
		nk := int64(n) * int64(k)
		for _, c := range []int64{kr.DistCalcs, kr.Skips, kr.Breaks} {
			if c < 0 || c > nk {
				t.Fatalf("dim=%d mode=%d: counters (%d,%d,%d) outside [0,%d]", dim, mode, kr.DistCalcs, kr.Skips, kr.Breaks, nk)
			}
		}
	})
}
