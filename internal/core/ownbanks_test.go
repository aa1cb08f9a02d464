package core

import (
	"fmt"
	"math"
	"testing"

	"geographer/internal/exact"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// checkOwnBanks rebuilds a rank's accumulator banks from scratch — fresh
// RowSums over the state's final assignment, weights and coordinates —
// and requires the delta-maintained own banks to hold the same integers
// element for element, over the same row window (the window is what
// rides the collective, so an equal window is equal wire bytes), and the
// shadow assignment to equal the real one. Called from rank goroutines:
// reports with t.Errorf only.
func checkOwnBanks(t *testing.T, st *state, ctx string) {
	stride := st.dim + 1
	wantW := exact.NewRowSums(st.k)
	wantC := exact.NewRowSums(st.k * stride)
	for i, a := range st.A {
		if a < 0 {
			t.Errorf("%s: point %d left unassigned", ctx, i)
			return
		}
		w := st.W[i]
		wantW.Add(int(a), w)
		for d, col := range st.X.Col {
			wantC.Add(int(a)*stride+d, w*col[i])
		}
		wantC.Add(int(a)*stride+st.dim, w)
	}
	for _, b := range []struct {
		name      string
		got, want *exact.RowSums
	}{{"block-weight", st.ownW, wantW}, {"center-sum", st.ownC, wantC}} {
		m := b.want.Len()
		for i, v := range b.want.Backing() {
			if g := b.got.Backing()[i]; g != v {
				t.Errorf("%s: maintained %s bank, limb row %d of sum %d: %d, rebuilt %d", ctx, b.name, i/m, i%m, g, v)
				return
			}
		}
		gotOff, gotSeg := b.got.Wire()
		wantOff, wantSeg := b.want.Wire()
		if gotOff != wantOff || len(gotSeg) != len(wantSeg) {
			t.Errorf("%s: maintained %s bank window rows [%d,%d), rebuilt [%d,%d)", ctx, b.name,
				gotOff/m, (gotOff+len(gotSeg))/m, wantOff/m, (wantOff+len(wantSeg))/m)
		}
	}
	for i, a := range st.A {
		if st.ownA[i] != a {
			t.Errorf("%s: shadow assignment of point %d is %d, assignment %d", ctx, i, st.ownA[i], a)
			return
		}
	}
}

// TestOwnBanksMatchRebuild drives a resident warm chain through
// everything that may invalidate the maintained banks between runs —
// new weights every step, one coordinate update, one partition imposed
// from outside, one snapshot → restore — and after every step compares
// each rank's banks with banks rebuilt from the step's final state. The
// banks are trusted within a run only: without the per-run invalidation
// the second step already subtracts last step's weights from this
// step's sums and the comparison fails. Every rank × worker layout must
// also walk the same chain of partitions.
func TestOwnBanksMatchRebuild(t *testing.T) {
	const n, k = 1800, 6
	for _, dim := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			// One cold partition seeds every layout's chain (a cold run is
			// not layout-independent; the warm steps after it are).
			cold, _ := runPartition(t, snapPoints(n, dim), k, 2, DefaultConfig())
			var ref [][]int32
			for _, p := range []int{1, 2, 3} {
				for _, workers := range []int{1, 2} {
					chain := ownBanksChain(t, cold.Assign, dim, k, p, workers)
					if ref == nil {
						ref = chain
						continue
					}
					for s := range ref {
						for i := range ref[s] {
							if chain[s][i] != ref[s][i] {
								t.Fatalf("p=%d workers=%d step %d: point %d in block %d, reference layout has %d",
									p, workers, s, i, chain[s][i], ref[s][i])
							}
						}
					}
				}
			}
		})
	}
}

// ownBanksChain runs the chain of TestOwnBanksMatchRebuild on one layout
// from the given starting partition and returns every step's partition.
func ownBanksChain(t *testing.T, start []int32, dim, k, p, workers int) [][]int32 {
	t.Helper()
	const steps = 22
	const moveStep, imposeStep, restoreStep = 6, 11, 16
	n := len(start)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = workers
	ps := snapPoints(n, dim).Clone()
	ps.Weight = make([]float64, n)
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}

	assign := append([]int32(nil), start...)
	var chain [][]int32
	carried := 0
	for s := 0; s < steps; s++ {
		ctx := fmt.Sprintf("dim=%d p=%d workers=%d step %d", dim, p, workers, s)
		for i := range ps.Weight {
			ps.Weight[i] = 1 + 0.3*math.Sin(float64(i)*0.37+float64(s))
		}
		for _, r := range res {
			r.SetWeightsGlobal(ps.Weight)
		}
		switch s {
		case moveStep:
			for i := range ps.Coords {
				ps.Coords[i] += 0.05 * math.Sin(float64(i)*0.11)
			}
			if err := w.Run(func(c *mpi.Comm) {
				r := res[c.Rank()]
				r.SetCoordsGlobal(ps.Coords)
				r.RecomputeBounds(c)
			}); err != nil {
				t.Fatal(err)
			}
		case imposeStep:
			// A partition the chain never produced, scattered over the
			// domain: its centers are far from the carried ones.
			for i := range assign {
				assign[i] = int32((i*7 + i/5) % k)
			}
		case restoreStep:
			for r := range res {
				got, err := RestoreResident(NewSnapDecoder(snapshotBytes(res[r])), partition.View(ps, p, r))
				if err != nil {
					t.Fatalf("%s: restore rank %d: %v", ctx, r, err)
				}
				res[r] = got
			}
		}

		centers := warmCentersFrom(ps, assign, k)
		bkm := New(cfg)
		out := make([]int32, n)
		if err := w.Run(func(c *mpi.Comm) {
			r := res[c.Rank()]
			ids, blocks, err := bkm.PartitionResident(c, r, k, centers)
			if err != nil {
				panic(err)
			}
			for i, id := range ids {
				out[id] = blocks[i]
			}
			checkOwnBanks(t, &r.st, fmt.Sprintf("%s rank %d", ctx, c.Rank()))
		}); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if t.Failed() {
			t.FailNow()
		}
		if bkm.LastInfo().CarriedBounds {
			carried++
		}
		assign = out
		chain = append(chain, out)
	}
	// The chain is only a test of the delta path if most steps took the
	// incremental route, where few points change block per round.
	if carried < steps-4 {
		t.Errorf("dim=%d p=%d workers=%d: only %d of %d steps carried their bounds", dim, p, workers, carried, steps)
	}
	return chain
}
