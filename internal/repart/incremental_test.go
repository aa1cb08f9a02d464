package repart

import (
	"fmt"
	"math"
	"testing"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// incrementalTestMesh returns the dim-specific differential workload.
func incrementalTestMesh(t *testing.T, dim int) *mesh.Mesh {
	t.Helper()
	var m *mesh.Mesh
	var err error
	if dim == 3 {
		m, err = mesh.GenDelaunay3D(1500, 42)
	} else {
		m, err = mesh.GenRefinedTri(2500, 42)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// chainStep is what one step of the differential chain records.
type chainStep struct {
	assign         []int32
	migratedWeight float64
	migratedPoints int
	incremental    bool
}

// runIncrementalChain drives one session through the shared scenario:
// cold partition, two perturbed-weight warm steps (the second is the
// first that can carry bounds), a coordinate drift (which must drop
// carried bounds), and a final perturbed-weight step (which may carry
// again).
func runIncrementalChain(t *testing.T, m *mesh.Mesh, p, workers int, incremental bool) []chainStep {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = workers
	cfg.Incremental = incremental

	ps0 := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: testWeights(m, 0)}
	sess, err := NewSession(mpi.NewWorld(p), ps0.Clone(), 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var out []chainStep
	initial, err := sess.Partition()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, chainStep{assign: append([]int32(nil), initial.Assign...)})

	record := func(pp partition.P, st Stats) {
		out = append(out, chainStep{
			assign:         append([]int32(nil), pp.Assign...),
			migratedWeight: st.MigratedWeight,
			migratedPoints: st.MigratedPoints,
			incremental:    st.Info.CarriedBounds,
		})
	}

	for step := 1; step <= 2; step++ {
		if err := sess.UpdateWeights(testWeights(m, step)); err != nil {
			t.Fatal(err)
		}
		pp, st, err := sess.Repartition()
		if err != nil {
			t.Fatalf("warm step %d: %v", step, err)
		}
		record(pp, st)
	}

	// Points drift: carried bounds relate the old positions to the
	// centers and must be dropped.
	moved := append([]float64(nil), m.Points.Coords...)
	for i := range moved {
		moved[i] += 0.01 * math.Sin(float64(i))
	}
	if err := sess.UpdateCoords(moved); err != nil {
		t.Fatal(err)
	}
	pp, st, err := sess.Repartition()
	if err != nil {
		t.Fatalf("post-UpdateCoords step: %v", err)
	}
	if st.Info.CarriedBounds {
		t.Errorf("p=%d workers=%d incremental=%v: step after UpdateCoords reused carried bounds", p, workers, incremental)
	}
	record(pp, st)

	if err := sess.UpdateWeights(testWeights(m, 3)); err != nil {
		t.Fatal(err)
	}
	pp, st, err = sess.Repartition()
	if err != nil {
		t.Fatalf("final warm step: %v", err)
	}
	record(pp, st)
	return out
}

// TestIncrementalMatchesReset is the differential pin of the tentpole:
// across Processes x Workers x {2D, 3D}, the incremental warm chain
// (carried bounds, boundary-only first passes) must produce partitions
// and migration stats byte-identical to the bounds-reset chain of the
// same layout. (The chains start from a cold partition, which is
// rank-layout-dependent by design — see the ROADMAP's exact-cold-path
// item — so whole chains are only comparable within one layout; the
// warm determinism across layouts is pinned separately by
// TestWarmStartDeterminism.) The scenario includes an UpdateCoords
// step, which must invalidate the carried bounds, and a subsequent
// weight step, which must carry again.
func TestIncrementalMatchesReset(t *testing.T) {
	for _, dim := range []int{2, 3} {
		m := incrementalTestMesh(t, dim)
		for _, p := range []int{1, 3} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("dim=%d/p=%d/workers=%d", dim, p, workers)
				t.Run(name, func(t *testing.T) {
					inc := runIncrementalChain(t, m, p, workers, true)
					reset := runIncrementalChain(t, m, p, workers, false)
					if len(inc) != len(reset) {
						t.Fatalf("chain lengths differ: %d vs %d", len(inc), len(reset))
					}
					carriedSteps := 0
					for s := range inc {
						for i := range inc[s].assign {
							if inc[s].assign[i] != reset[s].assign[i] {
								t.Fatalf("step %d diverged at point %d: incremental %d vs reset %d",
									s, i, inc[s].assign[i], reset[s].assign[i])
							}
						}
						if inc[s].migratedWeight != reset[s].migratedWeight || inc[s].migratedPoints != reset[s].migratedPoints {
							t.Fatalf("step %d migration stats diverged: (%g, %d) vs (%g, %d)", s,
								inc[s].migratedWeight, inc[s].migratedPoints,
								reset[s].migratedWeight, reset[s].migratedPoints)
						}
						if reset[s].incremental {
							t.Errorf("step %d of the reset chain reports the incremental fast path", s)
						}
						if inc[s].incremental {
							carriedSteps++
						}
					}
					// Warm step 2 and the post-coords weight step must have
					// carried (step indices 2 and 4 of the chain).
					if !inc[2].incremental {
						t.Error("second warm step did not carry bounds")
					}
					if !inc[4].incremental {
						t.Error("weight step after the coords-invalidated step did not carry bounds")
					}
					if carriedSteps != 2 {
						t.Errorf("%d carried steps, want exactly 2 (steps 2 and 4)", carriedSteps)
					}
				})
			}
		}
	}
}
