package repart

import (
	"math"
	"math/rand"
	"testing"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
)

// gaussianMixture builds an n-point d-dimensional Gaussian mixture around
// m well-separated centers — the feature-space workload of the highdim
// experiment, in miniature.
func gaussianMixture(n, dim, m int, seed int64) *geom.PointSet {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]float64, m*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 10
	}
	ps := &geom.PointSet{Dim: dim, Coords: make([]float64, n*dim)}
	for i := 0; i < n; i++ {
		c := centers[(i%m)*dim : (i%m+1)*dim]
		for d := 0; d < dim; d++ {
			ps.Coords[i*dim+d] = c[d] + rng.NormFloat64()
		}
	}
	return ps
}

func mixtureWeights(ps *geom.PointSet, t int) []float64 {
	out := make([]float64, ps.Len())
	for i := range out {
		x := ps.Coords[i*ps.Dim]
		y := ps.Coords[i*ps.Dim+ps.Dim-1]
		out[i] = 1 + 0.4*math.Sin(0.3*x+0.2*y+0.9*float64(t))
	}
	return out
}

// TestGenericDimSessionSteps pins the warm session chain in feature space
// (d = 8, beyond the spatial kernels): starting from a common previous
// partition, every Processes × Workers layout must produce bit-identical
// partitions at every step, the carried incremental bounds of steps ≥ 2
// included — and the incremental chain must match the bounds-reset
// chain of one-shot Repartition calls exactly.
func TestGenericDimSessionSteps(t *testing.T) {
	const n, dim, k, steps = 3000, 8, 6, 3
	ps := gaussianMixture(n, dim, k, 7)
	ps.Weight = mixtureWeights(ps, 0)

	// A fixed, layout-independent starting partition.
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = int32(i % k)
	}

	type chain struct {
		assigns [][]int32
		carried []bool
	}
	config := func(workers int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		cfg.Workers = workers
		return cfg
	}
	runChain := func(p, workers int) chain {
		sess, err := NewSession(mpi.NewWorld(p), ps.Clone(), k, config(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var ch chain
		cur := prev
		for step := 0; step < steps; step++ {
			if step > 0 {
				if err := sess.UpdateWeights(mixtureWeights(ps, step)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.SetPartition(cur); err != nil {
				t.Fatal(err)
			}
			part, _, err := sess.Repartition()
			if err != nil {
				t.Fatalf("p=%d w=%d step %d: %v", p, workers, step, err)
			}
			cur = part.Assign
			ch.assigns = append(ch.assigns, cur)
			ch.carried = append(ch.carried, sess.LastInfo().CarriedBounds)
		}
		return ch
	}

	base := runChain(1, 1)
	for step, carried := range base.carried {
		if step >= 1 && !carried {
			t.Errorf("step %d: incremental chain did not carry bounds", step)
		}
	}

	for _, p := range []int{2, 3} {
		for _, workers := range []int{1, 2} {
			got := runChain(p, workers)
			for step := range base.assigns {
				for i := range base.assigns[step] {
					if got.assigns[step][i] != base.assigns[step][i] {
						t.Fatalf("p=%d workers=%d step %d: assignment diverged at point %d (%d vs %d)",
							p, workers, step, i, got.assigns[step][i], base.assigns[step][i])
					}
				}
			}
		}
	}

	// Carried bounds are pure acceleration: the bounds-reset chain — one
	// fresh single-step session per step — must produce the exact same
	// partitions.
	cur := prev
	for step := range base.assigns {
		in := &geom.PointSet{Dim: dim, Coords: ps.Coords, Weight: mixtureWeights(ps, step)}
		part, st, err := Repartition(mpi.NewWorld(2), in, cur, k, config(2))
		if err != nil {
			t.Fatalf("one-shot step %d: %v", step, err)
		}
		if st.Info.CarriedBounds {
			t.Errorf("one-shot step %d reports carried bounds", step)
		}
		cur = part.Assign
		for i := range base.assigns[step] {
			if cur[i] != base.assigns[step][i] {
				t.Fatalf("bounds-reset chain diverged at step %d point %d", step, i)
			}
		}
	}
}
