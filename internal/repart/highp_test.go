package repart

import (
	"math"
	"testing"

	"geographer/internal/core"
	"geographer/internal/mpi"
)

// TestWarmRepartitionHighRankBitIdentical stretches the warm path's
// rank-layout invariance to the scale the soak experiment runs at: the
// partition computed by thousands of simulated ranks must be
// bit-identical to a two-rank reference. At p=4096 most ranks hold one
// or two points and many exact-reduction windows are empty, which is
// exactly the regime where a sparse-window or rendezvous-fold bug in
// the collectives would first show. p=4096 is skipped under -short; the
// always-on p=1024 case keeps the invariant pinned in quick runs.
func TestWarmRepartitionHighRankBitIdentical(t *testing.T) {
	const n, k = 6000, 16
	ps := randomPoints(n, 2, 11)
	prev := scratchPartition(t, ps, k, 4)
	for i := range ps.Weight {
		ps.Weight[i] *= 1 + 0.3*math.Sin(float64(i)*0.37)
	}

	cfg := core.DefaultConfig()
	ref, _, err := Repartition(mpi.NewWorld(2), ps, prev.Assign, k, cfg)
	if err != nil {
		t.Fatal(err)
	}

	procs := []int{1024}
	if !testing.Short() {
		procs = append(procs, 4096)
	}
	for _, p := range procs {
		got, st, err := Repartition(mpi.NewWorld(p), ps, prev.Assign, k, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if st.Info.SortSeconds != 0 {
			t.Errorf("p=%d: warm start ran the sort phase", p)
		}
		for i := range ref.Assign {
			if ref.Assign[i] != got.Assign[i] {
				t.Fatalf("p=%d: assignment diverges at point %d (%d vs %d)",
					p, i, ref.Assign[i], got.Assign[i])
			}
		}
	}
}

// TestSessionHighRankWarmSteps runs a short streaming session — carried
// bounds on — at p=1024 against a p=2 reference, step by step. This
// covers what the one-shot test above cannot: the incremental path's
// cross-step state (carried bounds, influence rescale, boundary
// counts) interacting with the windowed exact reductions at a rank
// count where nearly every rank's touched-row window differs.
func TestSessionHighRankWarmSteps(t *testing.T) {
	const n, k, steps = 4000, 8, 3
	ps := randomPoints(n, 2, 17)
	prev := scratchPartition(t, ps, k, 4)
	cfg := core.DefaultConfig()

	// The session takes ownership of the point set it is handed and
	// replaces its weight slice on UpdateWeights, so each run gets a
	// clone and the weight schedule derives from a private baseline.
	baseW := append([]float64(nil), ps.Weight...)
	weightsAt := func(step int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = baseW[i] * (1 + 0.3*math.Sin(float64(i)*0.37+float64(step)))
		}
		return w
	}

	run := func(p int) [][]int32 {
		sess, err := NewSession(mpi.NewWorld(p), ps.Clone(), k, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		defer sess.Close()
		if err := sess.SetPartition(prev.Assign); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		out := make([][]int32, steps)
		for s := 0; s < steps; s++ {
			if err := sess.UpdateWeights(weightsAt(s)); err != nil {
				t.Fatalf("p=%d step %d: %v", p, s, err)
			}
			part, _, err := sess.Repartition()
			if err != nil {
				t.Fatalf("p=%d step %d: %v", p, s, err)
			}
			out[s] = part.Assign
		}
		return out
	}

	ref := run(2)
	got := run(1024)
	for s := range ref {
		for i := range ref[s] {
			if ref[s][i] != got[s][i] {
				t.Fatalf("step %d: assignment diverges at point %d (%d vs %d)",
					s, i, ref[s][i], got[s][i])
			}
		}
	}
}
