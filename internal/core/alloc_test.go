package core

import (
	"math"
	"runtime"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// warmStepAllocs measures the per-step heap allocations of a
// steady-state warm session: resident columns ingested once, weights
// updated in place, PartitionResident called repeatedly. Two warm-up
// steps first grow every reusable buffer (and seed the carried bounds),
// so the measured step is the shape the soak experiment runs millions
// of points through.
func warmStepAllocs(t *testing.T, dim, n, k, p int) float64 {
	t.Helper()
	var ps *geom.PointSet
	if dim <= geom.MaxDim {
		ps = uniformPoints(n, dim, 23)
	} else {
		ps = flatRandomPoints(n, dim, 23)
	}
	prev, _ := runPartition(t, ps, k, p, DefaultConfig())
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}

	// Two alternating weight states keep every step a real warm run
	// instead of a converged no-op; out is reused across steps.
	wA := make([]float64, n)
	wB := make([]float64, n)
	for i := range wA {
		wA[i] = 1 + 0.3*math.Sin(float64(i)*0.37)
		wB[i] = 1 + 0.3*math.Sin(float64(i)*0.37+1)
	}
	assign := append([]int32(nil), prev.Assign...)
	out := make([]int32, n)
	step := 0
	body := func() {
		wt := wA
		if step%2 == 1 {
			wt = wB
		}
		step++
		cfg := DefaultConfig()
		cfg.Workers = 1 // helper goroutines are per machine, not per step
		centers := warmCentersFrom(ps, assign, k)
		bkm := New(cfg)
		for _, r := range res {
			r.SetWeightsGlobal(wt)
		}
		if err := w.Run(func(c *mpi.Comm) {
			ids, blocks, err := bkm.PartitionResident(c, res[c.Rank()], k, centers)
			if err != nil {
				panic(err)
			}
			for i, id := range ids {
				out[id] = blocks[i]
			}
		}); err != nil {
			t.Fatal(err)
		}
		copy(assign, out)
	}
	body()
	body()
	return testing.AllocsPerRun(5, body)
}

// TestWarmStepAllocsIndependentOfN pins the resident warm path's memory
// contract at the step level: after warm-up, a step's heap allocations
// must not scale with the point count. What remains per step is
// n-independent — the world's p goroutines, the warm-center recovery
// (k-sized) and the chunk fan-out closures of each kernel pass — so an
// 8× larger point set must not cost meaningfully more allocations.
// A per-point or per-collective leak anywhere on the warm path (kernel
// scratch, exact banks, collective deposits) fails the ratio check.
func TestWarmStepAllocsIndependentOfN(t *testing.T) {
	small := warmStepAllocs(t, 2, 3000, 8, 4)
	big := warmStepAllocs(t, 2, 24000, 8, 4)
	t.Logf("warm step allocs: n=3000 → %.0f, n=24000 → %.0f", small, big)
	if big > 3*small+512 {
		t.Errorf("warm step allocations scale with n: %.0f at n=3000 vs %.0f at n=24000", small, big)
	}
}

// TestWarmStepAllocsFlatInKAndP is the fence for the other two axes: a
// rank's allocations per steady-state warm step stay under one small
// constant whether k is 8 or 64 and whether p is 4 or 256. The exact
// reductions decode k sums per balance round and k·(dim+1) per
// iteration on every rank; a decode that allocates (the math/big one
// cost ~8 objects per sum) multiplies straight into k × rounds × p and
// overshoots this bound a hundredfold at k = 64. What is left follows
// the number of kernel passes — two fan-out closures each — not k, p
// or n.
func TestWarmStepAllocsFlatInKAndP(t *testing.T) {
	const perRank = 160
	for _, tc := range []struct{ dim, n, k, p int }{
		{2, 6000, 8, 4},
		{2, 6000, 64, 4},
		{2, 24000, 8, 256},
		{2, 24000, 64, 256},
		{8, 6000, 8, 4},
		{8, 6000, 64, 4},
	} {
		got := warmStepAllocs(t, tc.dim, tc.n, tc.k, tc.p)
		t.Logf("d=%d k=%d p=%d: %.0f allocs per step, %.1f per rank", tc.dim, tc.k, tc.p, got, got/float64(tc.p))
		if got > float64(perRank*tc.p) {
			t.Errorf("d=%d k=%d p=%d: %.0f allocations per warm step, want at most %d per rank", tc.dim, tc.k, tc.p, got, perRank)
		}
	}
}

// TestKernelPassAllocsFlatInDim pins the point scratch of the Hamerly
// body beyond geom.MaxDim to one allocation per shard: the first pass
// over fresh shards grows it, runAssignKernels keeps it, and from then on
// a pass at d = 8 allocates exactly what a 3D pass does (its fan-out
// closures) — in the cold pass and with the raw column attached.
func TestKernelPassAllocsFlatInDim(t *testing.T) {
	for _, raw := range []bool{false, true} {
		perPass := func(dim int) float64 {
			st, sample := kernelScenario(t, dim, 1200, 9, BoundsHamerly, true, 3)
			if raw {
				st, sample = rawScenario(t, dim, 1200, 9, true, 3)
			}
			runKernels(st, sample, captureRun(st, 0, 0, 0), false, 1)
			return testing.AllocsPerRun(5, func() { st.runAssignKernels(sample) })
		}
		if d3, d8 := perPass(3), perPass(8); d8 != d3 {
			t.Errorf("raw=%v: %.0f allocations per pass at d=8, %.0f at d=3", raw, d8, d3)
		}
	}
}

// TestResidentWarmStepReusesOutputBuffers double-checks the documented
// PartitionResident contract that the returned slices are the state's
// reused buffers, not fresh per-call allocations.
func TestResidentWarmStepReusesOutputBuffers(t *testing.T) {
	const n, k, p = 1000, 4, 2
	ps := uniformPoints(n, 2, 29)
	prev, _ := runPartition(t, ps, k, p, DefaultConfig())
	w := mpi.NewWorld(p)
	res := make([]*Resident, p)
	if err := w.Run(func(c *mpi.Comm) {
		res[c.Rank()] = Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	centers := warmCentersFrom(ps, prev.Assign, k)
	bkm := New(cfg)
	ptr := make([]*int32, p)
	for round := 0; round < 2; round++ {
		if err := w.Run(func(c *mpi.Comm) {
			_, blocks, err := bkm.PartitionResident(c, res[c.Rank()], k, centers)
			if err != nil {
				panic(err)
			}
			if round == 0 {
				ptr[c.Rank()] = &blocks[0]
			} else if ptr[c.Rank()] != &blocks[0] {
				panic("warm step reallocated its output buffer")
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// coldPartitionBytes is the heap one cold Partition below allocated
// (runtime.MemStats.TotalAlloc) once the ranks received their points as
// columns and the sort batch adopted them (28.07 MB while the scatter
// handed out a flat copy that the ingest transposed again); it repeats
// to ±0.02 %.
const coldPartitionBytes = 25.25e6

// TestColdPartitionAllocFence keeps the cold path's per-point memory where
// it was: one cold Partition (n = 100 000, d = 2, k = 32, p = 2, serial
// kernels) may allocate at most 1 % more than coldPartitionBytes. The
// sampled bootstrap moves the points into shuffled order and back; doing
// that through an n-sized scratch per rank instead of in place would cost
// ≈ 1.6 MB here (an n-float64 plus n-int64 buffer on each
// rank) and fail the fence.
func TestColdPartitionAllocFence(t *testing.T) {
	ps := uniformPoints(100_000, 2, 1)
	cfg := DefaultConfig()
	cfg.Workers = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := partition.Run(mpi.NewWorld(2), ps, 32, New(cfg)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("cold Partition allocated %.0f bytes (%.2f MB); fence %.2f MB", got, got/1e6, 1.01*coldPartitionBytes/1e6)
	if got > 1.01*coldPartitionBytes {
		t.Errorf("cold Partition allocated %.2f MB, more than 1 %% over %.2f MB", got/1e6, coldPartitionBytes/1e6)
	}
}
