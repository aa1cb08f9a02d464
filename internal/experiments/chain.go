package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// chain is one measured session chain — the paper's §1 use case, a
// simulation that repartitions every timestep as its load drifts: one
// session, a first partition, then warm steps of UpdateWeights +
// Repartition. Every streaming experiment runs (or checks against) one.
type chain struct {
	Assign  [][]int32      // [0] the first partition, [t] after step t
	Steps   []repart.Stats // [t-1] step t
	StepSec []float64      // [t-1] wall time of step t's UpdateWeights + Repartition

	IngestSec float64   // NewSession (scatter + resident build)
	ColdSec   float64   // the first partition
	ColdInfo  core.Info // k-means diagnostics of a cold first partition

	// World sums the ranks' counters after the last step, except
	// ModeledCommSec, which is the max over ranks.
	World mpi.Stats
	// Mallocs and AllocBytes are the runtime.MemStats deltas of the step
	// loop.
	Mallocs, AllocBytes uint64
	Imbalance           float64 // Session.Imbalance after the last step
}

// runChain runs a chain of steps warm steps on a fresh world of p ranks:
// weights(t) is the load of step t = 1..steps. first, when non-nil, is
// imposed as the first partition; nil runs a cold Partition.
func runChain(ps *geom.PointSet, k, p int, cfg core.Config, first []int32, steps int, weights func(t int) []float64) (chain, error) {
	var ch chain
	w := mpi.NewWorld(p)
	sess, err := repart.NewSession(w, ps, k, cfg)
	if err != nil {
		return ch, err
	}
	defer sess.Close()
	ch.IngestSec = sess.IngestSeconds()

	t0 := time.Now()
	if first != nil {
		err = sess.SetPartition(first)
	} else {
		part, perr := sess.Partition()
		first, err = part.Assign, perr
		ch.ColdInfo = sess.LastInfo()
	}
	if err != nil {
		return ch, fmt.Errorf("first partition: %w", err)
	}
	ch.ColdSec = time.Since(t0).Seconds()
	ch.Assign = append(ch.Assign, first)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for t := 1; t <= steps; t++ {
		t0 := time.Now()
		if err := sess.UpdateWeights(weights(t)); err != nil {
			return ch, fmt.Errorf("step %d: %w", t, err)
		}
		part, st, err := sess.Repartition()
		if err != nil {
			return ch, fmt.Errorf("step %d: %w", t, err)
		}
		ch.StepSec = append(ch.StepSec, time.Since(t0).Seconds())
		ch.Assign = append(ch.Assign, part.Assign)
		ch.Steps = append(ch.Steps, st)
	}
	runtime.ReadMemStats(&ms1)
	ch.Mallocs, ch.AllocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	for _, st := range w.Stats() {
		modeled := math.Max(ch.World.ModeledCommSec, st.ModeledCommSec)
		ch.World.Add(st)
		ch.World.ModeledCommSec = modeled
	}
	ch.Imbalance, err = sess.Imbalance()
	return ch, err
}

// warmDistCalcs sums the warm steps' distance evaluations.
func (ch chain) warmDistCalcs() int64 {
	var n int64
	for _, st := range ch.Steps {
		n += st.Info.DistCalcs
	}
	return n
}

// stepSecMean is the mean wall time of a warm step.
func (ch chain) stepSecMean() float64 {
	var s float64
	for _, x := range ch.StepSec {
		s += x
	}
	return s / float64(len(ch.StepSec))
}

// sameAssign reports bit-identity of two assignment vectors.
func sameAssign(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seededConfig is the default k-means configuration under the fixed seed
// the experiments reproduce with (the soak alone keeps seed 0).
func seededConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	return cfg
}

// perturbedWeights models evolving simulation load at timestep t: the
// base weights drift under a smooth spatial wave (amplitude ±40%) whose
// phase advances with t — deterministic, strictly positive, and
// spatially correlated like real load evolution (a climate front or a
// refinement region moving through the mesh, paper §1).
func perturbedWeights(m *mesh.Mesh, t int) []float64 {
	ps := m.Points
	n := ps.Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		x := ps.Coords[i*ps.Dim]
		y := ps.Coords[i*ps.Dim+1]
		wave := math.Sin(0.08*x + 0.05*y + 0.9*float64(t)) // spatial wave, phase moves per step
		out[i] = ps.W(i) * (1 + 0.4*wave)
	}
	return out
}

// repartWorkloads lists the dynamic-load scenarios: the 2.5D climate
// mesh (the paper's motivating repartitioning use case, with layer
// weights) and a refined 2D mesh (unit base weights).
func repartWorkloads(sc Scale) []struct {
	kind string
	n, k int
} {
	return []struct {
		kind string
		n, k int
	}{
		{"climate", sc.Table2N, 16},
		{"refined", sc.Table2N, 16},
	}
}

// atStep returns m's points under the load of timestep t
// (perturbedWeights), sharing the mesh coordinates.
func atStep(m *mesh.Mesh, t int) *geom.PointSet {
	return &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: perturbedWeights(m, t)}
}

// travellingWave is the soak and highdim load schedule: base weights
// under a wave over the point index whose phase advances one radian per
// step, so block weights shift every step and each warm step does real
// balancing work.
func travellingWave(base []float64, step int, freq float64) []float64 {
	w := make([]float64, len(base))
	for i := range w {
		w[i] = base[i] * (1 + 0.3*math.Sin(float64(i)*freq+float64(step)))
	}
	return w
}

// quickCellsFirst returns cellsFor(sc), preceded — when sc is larger
// than quick scale — by cellsFor(QuickScale()). The quick cells are
// cheap, and their presence in every report (including the committed
// default-scale ones) gives CI's quick runs matching cells to diff
// against.
func quickCellsFirst[C any](sc Scale, larger bool, cellsFor func(Scale) []C) []C {
	cells := cellsFor(sc)
	if larger {
		cells = append(cellsFor(QuickScale()), cells...)
	}
	return cells
}
