package geographer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geographer/internal/serve"
)

// Metamorphic invariance at the facade: transforms of the input that
// leave the geometry's shape and the relative loads unchanged must leave
// every assignment unchanged. Scaling by a power of two is exact in
// floating point, so bit-identity is the contract, not closeness; the
// thresholds that could break it (the k-means convergence delta) are
// relative to the bounding box.

// scaled returns v·2^j.
func scaled(v []float64, j int) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Ldexp(x, j)
	}
	return out
}

// waveWeights is a travelling load wave along the first axis, phase
// shifted by step: a non-uniform weight field, so scaling it is not the
// same as scaling unit weights.
func waveWeights(coords []float64, dim, step int) []float64 {
	n := len(coords) / dim
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		lo, hi = min(lo, coords[i*dim]), max(hi, coords[i*dim])
	}
	w := make([]float64, n)
	for i := range w {
		x := (coords[i*dim] - lo) / (hi - lo)
		w[i] = 1 + 0.5*math.Sin(2*math.Pi*x+0.7*float64(step))
	}
	return w
}

// drifted moves every point along the first axis by a wave in its second
// coordinate, scaled with step: a coordinate update for a session chain.
func drifted(coords []float64, dim, step int) []float64 {
	n := len(coords) / dim
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		lo, hi = min(lo, coords[i*dim+1]), max(hi, coords[i*dim+1])
	}
	out := append([]float64(nil), coords...)
	for i := 0; i < n; i++ {
		y := (coords[i*dim+1] - lo) / (hi - lo)
		out[i*dim] += 0.01 * float64(step) * (hi - lo) * math.Sin(2*math.Pi*y)
	}
	return out
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func TestMetamorphicInvariance(t *testing.T) {
	const n, k, p, chainSteps = 20000, 16, 4, 2
	// Each scaling multiplies the coordinates by 2^cj and the weights by
	// 2^wj; one of the two exponents is 0.
	type scaling struct {
		what   string
		cj, wj int
	}
	var scalings []scaling
	for _, j := range []int{-10, -1, 1, 10} {
		scalings = append(scalings,
			scaling{fmt.Sprintf("coords×2^%d", j), j, 0}, scaling{fmt.Sprintf("weights×2^%d", j), 0, j})
	}
	for _, kind := range []string{MeshDelaunay2D, MeshDelaunay3D} {
		m, err := GenerateMesh(kind, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		dim, coords, weights := m.Dim, m.Coords, waveWeights(m.Coords, m.Dim, 0)

		for _, det := range []bool{false, true} {
			opts := Options{K: k, Processes: p, Deterministic: det}
			want, err := Partition(coords, dim, weights, opts)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got []int32, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s det=%v %s: %v", kind, det, what, err)
				}
				if i := firstDiff(got, want); i >= 0 {
					t.Errorf("%s det=%v %s: assignment of point %d moved", kind, det, what, i)
				}
			}
			for _, c := range scalings {
				got, err := Partition(scaled(coords, c.cj), dim, scaled(weights, c.wj), opts)
				check(c.what, got, err)
			}

			perm := rand.New(rand.NewSource(7)).Perm(n)
			pc := make([]float64, len(coords))
			pw := make([]float64, n)
			for i, src := range perm {
				copy(pc[i*dim:(i+1)*dim], coords[src*dim:(src+1)*dim])
				pw[i] = weights[src]
			}
			pb, err := Partition(pc, dim, pw, opts)
			if err != nil {
				t.Fatal(err)
			}
			back := make([]int32, n)
			for i, src := range perm {
				back[src] = pb[i]
			}
			check("permuted and mapped back", back, nil)

			// The one-shot warm start from the cold partition, under the
			// same scalings.
			warm, err := Repartition(coords, dim, weights, want, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range scalings {
				got, err := Repartition(scaled(coords, c.cj), dim, scaled(weights, c.wj), want, opts)
				if err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(got.Blocks, warm.Blocks); i >= 0 {
					t.Errorf("%s det=%v Repartition %s: assignment of point %d moved", kind, det, c.what, i)
				}
			}
		}

		// The registry's cold partition verb, one tenant per scaling.
		reg := serve.NewRegistry(serve.Config{})
		verb := func(cj, wj int) []int32 {
			name := fmt.Sprintf("%s/%d/%d", kind, cj, wj)
			ps, err := pointSet(scaled(coords, cj), dim, scaled(weights, wj))
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Create(context.Background(), name, ps, serve.TenantOptions{K: k, Processes: p}); err != nil {
				t.Fatal(err)
			}
			defer reg.Delete(name)
			part, _, err := reg.Partition(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			return part.Assign
		}
		regBase := verb(0, 0)
		for _, c := range scalings {
			if i := firstDiff(verb(c.cj, c.wj), regBase); i >= 0 {
				t.Errorf("%s registry partition %s: assignment of point %d moved", kind, c.what, i)
			}
		}

		// A session chain — cold Partition, then UpdateWeights +
		// UpdateCoords + Repartition steps — under the same scalings.
		chain := func(cj, wj int) [][]int32 {
			s, err := NewSession(scaled(coords, cj), dim, scaled(weights, wj), Options{K: k, Processes: p})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			b, err := s.Partition()
			if err != nil {
				t.Fatal(err)
			}
			out := [][]int32{b}
			for step := 1; step <= chainSteps; step++ {
				if err := s.UpdateWeights(scaled(waveWeights(coords, dim, step), wj)); err != nil {
					t.Fatal(err)
				}
				if err := s.UpdateCoords(scaled(drifted(coords, dim, step), cj)); err != nil {
					t.Fatal(err)
				}
				res, err := s.Repartition()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res.Blocks)
			}
			return out
		}
		base := chain(0, 0)
		for _, c := range scalings {
			for step, got := range chain(c.cj, c.wj) {
				if i := firstDiff(got, base[step]); i >= 0 {
					t.Errorf("%s chain %s step %d: assignment of point %d moved", kind, c.what, step, i)
				}
			}
		}
	}
}

// FuzzPartitionScaleInvariant: on a small random 1D, 2D or 3D point set
// with random weights, scaling the coordinates by 2^ce and the weights
// by 2^we leaves every assignment unchanged, for every int8 exponent, and
// so does permuting the scaled input by a seeded permutation and mapping
// the result back.
func FuzzPartitionScaleInvariant(f *testing.F) {
	f.Add(int8(1), int8(0), int64(1), int64(7))
	f.Add(int8(0), int8(-3), int64(2), int64(8))
	f.Add(int8(-10), int8(10), int64(3), int64(9))
	f.Add(int8(127), int8(-128), int64(4), int64(10))
	f.Add(int8(-128), int8(127), int64(5), int64(11))
	f.Fuzz(func(t *testing.T, ce, we int8, seed, permSeed int64) {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(3)
		n := 50 + rng.Intn(200)
		coords := randomCoords(n, dim, seed)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.25 + rng.Float64()
		}
		opts := Options{K: 2 + rng.Intn(7), Processes: 1 + rng.Intn(3), Deterministic: rng.Intn(2) == 0}
		want, err := Partition(coords, dim, weights, opts)
		if err != nil {
			t.Fatal(err)
		}
		sc, sw := scaled(coords, int(ce)), scaled(weights, int(we))
		got, err := Partition(sc, dim, sw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("n=%d dim=%d %+v: coords×2^%d, weights×2^%d moved point %d (%d → %d)",
				n, dim, opts, ce, we, i, want[i], got[i])
		}

		perm := rand.New(rand.NewSource(permSeed)).Perm(n)
		pc, pw := make([]float64, len(sc)), make([]float64, n)
		for i, src := range perm {
			copy(pc[i*dim:(i+1)*dim], sc[src*dim:(src+1)*dim])
			pw[i] = sw[src]
		}
		pb, err := Partition(pc, dim, pw, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range perm {
			got[src] = pb[i]
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("n=%d dim=%d %+v: coords×2^%d, weights×2^%d, permutation %d moved point %d (%d → %d)",
				n, dim, opts, ce, we, permSeed, i, want[i], got[i])
		}
	})
}
