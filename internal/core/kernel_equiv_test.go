package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// kernelScenario builds a state holding one ready-to-run assignment round
// over random weighted points: random centers and influences, a computed
// bounding-box pruning order, and randomized prior bounds so every branch
// of the kernels (skip, prune-break, recompute) is exercised.
func kernelScenario(t testing.TB, dim, n, k int, bounds BoundsKind, prune bool, seed int64) (*state, []int32) {
	rng := rand.New(rand.NewSource(seed))
	st := &state{dim: dim, k: k}
	st.cfg.Bounds = bounds
	st.cfg.BBoxPruning = prune

	st.X = geom.MakeCols(dim, n)
	st.W = make([]float64, n)
	vec := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range vec {
			vec[d] = rng.Float64()
		}
		st.X.SetVec(i, vec)
		st.W[i] = 0.2 + 2*rng.Float64()
	}

	st.centers = make([]float64, k*dim)
	st.influence = make([]float64, k)
	st.centerCols = geom.MakeCols(dim, k)
	st.invInf2 = make([]float64, k)
	st.orderedCenters = make([]int32, k)
	st.distToBB2 = make([]float64, k)
	st.localW = make([]float64, k)
	for b := 0; b < k; b++ {
		row := st.centers[b*dim : (b+1)*dim]
		for d := range row {
			row[d] = rng.Float64()
		}
		st.centerCols.SetVec(b, row)
		st.influence[b] = 0.5 + 1.5*rng.Float64()
		inv := 1 / st.influence[b]
		st.invInf2[b] = inv * inv
	}

	sample := make([]int32, n)
	for i := range sample {
		sample[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })

	st.scenarioTables(sample)

	st.A = make([]int32, n)
	st.ub = make([]float64, n)
	st.lb = make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			st.A[i] = -1
			st.ub[i] = math.Inf(1)
		} else {
			st.A[i] = int32(rng.Intn(k))
			st.ub[i] = rng.Float64()
			st.lb[i] = rng.Float64() // ~half the points satisfy ub < lb
		}
	}
	if bounds == BoundsElkan {
		st.lbk = make([]float64, n*k)
		for i := range st.lbk {
			st.lbk[i] = rng.Float64() - 0.1 // some non-positive entries
		}
	}

	// Odd seeds carry a pending influence rescale into the pass.
	st.pendUbRatio = make([]float64, k)
	st.pendLbRatio = math.Inf(1)
	for b := range st.pendUbRatio {
		st.pendUbRatio[b] = 0.9 + 0.2*rng.Float64()
		if st.pendUbRatio[b] < st.pendLbRatio {
			st.pendLbRatio = st.pendUbRatio[b]
		}
	}
	st.pendScaled = seed%2 == 1
	return st, sample
}

// scenarioTables computes the sample's bounding box, every center's
// squared effective distance to it and — when pruning — the ascending
// center order, from the state's current points and centers.
func (st *state) scenarioTables(sample []int32) {
	dim, k := st.dim, st.k
	bmin := make([]float64, dim)
	bmax := make([]float64, dim)
	geom.FlatBoxInit(bmin, bmax)
	for _, i := range sample {
		geom.SampleBoxW(st.X.Col, st.W, int(i), int(i)+1, bmin, bmax, 0)
	}
	for b := 0; b < k; b++ {
		st.orderedCenters[b] = int32(b)
		st.distToBB2[b] = geom.FlatBoxMinDist2(bmin, bmax, st.centers[b*dim:(b+1)*dim]) * st.invInf2[b]
	}
	if st.cfg.BBoxPruning {
		sortCentersByDist(st.orderedCenters, st.distToBB2)
	}
}

// bitsEqual returns the first index at which a and b differ at the bit
// level, or -1. Two NaNs count as equal: NaN payloads are not portable
// across expression shapes, and only the hostile-input fuzz produces them.
func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// scenarioCCTables gives the scenario what assignAndBalance hands a pass
// whose Hamerly rescans are anchored: the k×k center-center tables, built
// by the production buildCCTables, and the conservative 1/max-influence.
func (st *state) scenarioCCTables() {
	maxInf := 0.0
	for _, f := range st.influence {
		if f > maxInf {
			maxInf = f
		}
	}
	st.rawLbInv = (1 / maxInf) * (1 - boundSlack)
	st.perCenter = make([]float64, st.k)
	st.buildCCTables()
	st.ccBuilt = true
}

// scenarioCurveBlocks gives every point a random anchor, the column a
// curve-seeded cold run hands its passes at d = 2 and 3 (at every other
// dimension it leaves none, as ensureScratch does): with the
// center-center tables attached, an unassigned point walks from its
// anchor instead of scanning in box order.
func (st *state) scenarioCurveBlocks(seed int64) {
	if st.dim != 2 && st.dim != 3 {
		st.curveBlock = nil
		return
	}
	rng := rand.New(rand.NewSource(seed + 2000))
	st.curveBlock = make([]uint64, st.X.Len())
	for i := range st.curveBlock {
		st.curveBlock[i] = uint64(rng.Intn(st.k))
	}
}

// rawScenario extends a kernelScenario with the warm incremental state the
// Hamerly body's raw shadow column needs: raw lower bounds, the raw skip
// floor, and the k×k center-to-center anchored-scan tables. prune sets the
// box-prune flag, which production warm runs carry (BBoxPruning defaults
// on) and which the raw column must never act on; to make that testable,
// a pruned scenario stretches its centers over three times the point cube,
// so that most of them lie outside the sample box and the box break of an
// unanchored scan would fire if the raw column let it.
func rawScenario(t testing.TB, dim, n, k int, prune bool, seed int64) (*state, []int32) {
	st, sample := kernelScenario(t, dim, n, k, BoundsHamerly, prune, seed)
	if prune {
		for b := 0; b < k; b++ {
			row := st.centers[b*dim : (b+1)*dim]
			for d := range row {
				row[d] *= 3
			}
			st.centerCols.SetVec(b, row)
		}
		st.scenarioTables(sample)
	}
	rng := rand.New(rand.NewSource(seed + 1000))
	st.trackRaw = true
	st.rlb = make([]float64, st.X.Len())
	for i := range st.rlb {
		st.rlb[i] = rng.Float64() * 0.5
	}
	st.scenarioCCTables()
	return st, sample
}

// kernelRun is everything one assignment pass produces.
type kernelRun struct {
	a          []int32
	ub, lb     []float64
	lbk, rlb   []float64
	localW     []float64
	dc, sk, br int64
}

func captureRun(st *state, dc, sk, br int64) kernelRun {
	return kernelRun{
		a:      slices.Clone(st.A),
		ub:     slices.Clone(st.ub),
		lb:     slices.Clone(st.lb),
		lbk:    slices.Clone(st.lbk),
		rlb:    slices.Clone(st.rlb),
		localW: slices.Clone(st.localW),
		dc:     dc, sk: sk, br: br,
	}
}

// restore resets the state's per-point slices to the captured ones and
// zeroes the weight accumulator, ready for another pass.
func (r kernelRun) restore(st *state) {
	copy(st.A, r.a)
	copy(st.ub, r.ub)
	copy(st.lb, r.lb)
	copy(st.lbk, r.lbk)
	copy(st.rlb, r.rlb)
	clear(st.localW)
}

func compareRuns(t *testing.T, label string, got, want kernelRun) {
	t.Helper()
	for i := range got.a {
		if got.a[i] != want.a[i] {
			t.Fatalf("%s: A[%d] = %d, want %d", label, i, got.a[i], want.a[i])
		}
	}
	for _, s := range []struct {
		name     string
		got, ref []float64
	}{
		{"ub", got.ub, want.ub}, {"lb", got.lb, want.lb},
		{"lbk", got.lbk, want.lbk}, {"rlb", got.rlb, want.rlb},
		{"localW", got.localW, want.localW},
	} {
		if i := bitsEqual(s.got, s.ref); i >= 0 {
			t.Fatalf("%s: %s[%d] = %x, want %x", label, s.name, i, s.got[i], s.ref[i])
		}
	}
	if got.dc != want.dc || got.sk != want.sk || got.br != want.br {
		t.Fatalf("%s: counters (%d,%d,%d), want (%d,%d,%d)",
			label, got.dc, got.sk, got.br, want.dc, want.sk, want.br)
	}
}

// runKernels resets the state to the captured starting slices, builds the
// shard array fresh — no point scratch, the pass sizes its own — and runs
// one production assignment pass with the given worker count.
func runKernels(st *state, sample []int32, start kernelRun, pend bool, workers int) kernelRun {
	st.shards = make([]geom.AssignKernel, kernelChunks(len(sample)))
	for s := range st.shards {
		st.shards[s].LocalW = make([]float64, st.k)
	}
	return rerunKernels(st, sample, start, pend, workers)
}

// rerunKernels is runKernels on the shards the previous pass left behind,
// scratch included: what every pass after a state's first one runs on.
func rerunKernels(st *state, sample []int32, start kernelRun, pend bool, workers int) kernelRun {
	start.restore(st)
	st.pendScaled = pend
	st.workers = workers
	dc, sk, br := st.runAssignKernels(sample)
	return captureRun(st, dc, sk, br)
}

// referenceRun resets the state like runKernels and drives the scalar
// reference path chunk by chunk on the same fixed grid as production,
// merging weight partials in chunk order.
func referenceRun(st *state, sample []int32, start kernelRun, pend bool) kernelRun {
	start.restore(st)
	ref := geom.AssignKernel{
		PX: st.X.X, PY: st.X.Y, PZ: st.X.Z, W: st.W,
		CX: st.centerCols.X, CY: st.centerCols.Y, CZ: st.centerCols.Z,
		PC: st.X.Col, CC: st.centerCols.Col,
		InvInf2: st.invInf2,
		Order:   st.orderedCenters, DistBB2: st.distToBB2, Prune: st.cfg.BBoxPruning,
		K: st.k,
		A: st.A, Ub: st.ub, Lb: st.lb, Lbk: st.lbk,
		LocalW: make([]float64, st.k),
	}
	if st.ccBuilt {
		ref.CCOrder = st.ccOrder
		ref.CCDist = st.ccDist
		ref.RawLbInv = st.rawLbInv
		ref.Anchor = st.curveBlock
	}
	if st.trackRaw {
		ref.RawLb = st.rlb
	}
	if pend {
		ref.UbScale = st.pendUbRatio
		ref.LbScale = st.pendLbRatio
	}
	bounds := st.cfg.Bounds
	refLW := make([]float64, st.k)
	nc := kernelChunks(len(sample))
	chunk := (len(sample) + nc - 1) / nc
	for s := 0; s < nc; s++ {
		lo := s * chunk
		hi := min(lo+chunk, len(sample))
		clear(ref.LocalW)
		if st.trackRaw {
			referenceAssignRaw(st.dim, &ref, sample[lo:hi])
		} else {
			referenceAssign(st.dim, &ref, sample[lo:hi], bounds == BoundsHamerly, bounds == BoundsElkan)
		}
		for b := 0; b < st.k; b++ {
			refLW[b] += ref.LocalW[b]
		}
	}
	r := captureRun(st, ref.DistCalcs, ref.Skips, ref.Breaks)
	copy(r.localW, refLW)
	return r
}

// checkAgainstReference runs the scenario through the scalar reference
// and through the production dispatch, serial and sharded — both on fresh
// shards — and once more on the shards (and point scratch) the sharded run
// kept: chunks accumulate on the same fixed grid regardless of worker
// count, so every output — per-point state (A, ub, lb, lbk, rlb), local
// block weights, counters — must match the reference bit for bit.
func checkAgainstReference(t *testing.T, st *state, sample []int32) {
	t.Helper()
	pend := st.pendScaled
	start := captureRun(st, 0, 0, 0)
	ref := referenceRun(st, sample, start, pend)
	compareRuns(t, "serial", runKernels(st, sample, start, pend, 1), ref)
	compareRuns(t, "sharded", runKernels(st, sample, start, pend, 3), ref)
	compareRuns(t, "kept scratch", rerunKernels(st, sample, start, pend, 3), ref)
}

// The dimensions of the differential lattice. Of spatialDims, d = 2 and 3
// take the unrolled arms of the kernels' distance switch; d = 1 takes the
// gathered, blocked column walk, as highDims do — which is why the walk's
// dimensions also run at blockKs: center counts that leave a short last
// block, or a single short one, next to a whole number of blocks.
var (
	spatialDims = []int{1, 2, 3}
	highDims    = []int{4, 8, 16, 64}
	blockKs     = []int{1, 7, 9, 17, 32}
)

// latticeN keeps the O(n·k·d) reference pass cheap at high d.
func latticeN(dim int) int {
	switch {
	case dim >= 16:
		return 400
	case dim > geom.MaxDim:
		return 1200
	}
	return 2000
}

// kernelLattice is the one differential lattice pinning the assignment
// kernels: dims × {hamerly, elkan, none} × prune × {serial, sharded}
// against the scalar reference path, the Hamerly cells once more with the
// center-center tables attached (the anchored rescan of the cold pass),
// and at d = 2 and 3 once more with its unassigned points walking from
// curve anchors. Seeds alternate a pending influence rescale on and off; every
// cell runs at each k of ks.
func kernelLattice(t *testing.T, dims, ks []int, seeds int, seedBase int64) {
	for _, dim := range dims {
		for _, bounds := range []BoundsKind{BoundsHamerly, BoundsElkan, BoundsNone} {
			for _, prune := range []bool{true, false} {
				arms := []string{""}
				if bounds == BoundsHamerly {
					arms = append(arms, "/anchored")
					if dim == 2 || dim == 3 {
						arms = append(arms, "/anchored/curve")
					}
				}
				for _, arm := range arms {
					name := fmt.Sprintf("dim=%d/%s/prune=%v%s", dim, bounds, prune, arm)
					t.Run(name, func(t *testing.T) {
						for _, k := range ks {
							for seed := int64(0); seed < int64(seeds); seed++ {
								st, sample := kernelScenario(t, dim, latticeN(dim), k, bounds, prune, seedBase+seed)
								if arm != "" {
									st.scenarioCCTables()
								}
								if arm == "/anchored/curve" {
									st.scenarioCurveBlocks(seedBase + seed)
								}
								checkAgainstReference(t, st, sample)
							}
						}
					})
				}
			}
		}
	}
}

// rawLattice is the same for the warm incremental Hamerly pass — the one
// body with the raw shadow column attached: raw bound maintenance, raw
// skip floor, center-anchored scans with the triangle break, and no box
// break whether the prune flag is set or not.
func rawLattice(t *testing.T, dims, ks []int, seeds int, seedBase int64) {
	for _, dim := range dims {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			for _, prune := range []bool{true, false} {
				for _, k := range ks {
					for seed := int64(0); seed < int64(seeds); seed++ {
						st, sample := rawScenario(t, dim, latticeN(dim), k, prune, seedBase+seed)
						checkAgainstReference(t, st, sample)
					}
				}
			}
		})
	}
}

// TestKernelMatchesReference and TestGenericKernelMatchesReference are the
// two halves of kernelLattice: every spatial dimension at one k, and the
// column walk (d = 1 and beyond geom.MaxDim) at blockKs, so the highdim
// CI job can select the walk's half by name.
func TestKernelMatchesReference(t *testing.T) {
	kernelLattice(t, spatialDims, []int{13}, 4, 100)
}

func TestGenericKernelMatchesReference(t *testing.T) {
	walkDims := append([]int{1}, highDims...)
	kernelLattice(t, walkDims, blockKs, 2, 600)
	t.Run("raw", func(t *testing.T) { rawLattice(t, walkDims, blockKs, 2, 700) })
}

func TestRawKernelMatchesReference(t *testing.T) {
	rawLattice(t, append(spatialDims, highDims...), []int{13}, 4, 200)
}

// clusterScenario re-places a scenario's centers into four far-apart groups
// of uneven size (3, 5, 11 and the rest) and every point next to a random
// center, and returns the points by their center's group. Uniform data
// never stops a scan early at high d — every center lies inside the
// sample box and center-center distances concentrate — where a sample
// drawn from one group here stops both rules after about that group's
// worth of centers: at scan positions that are not multiples of the block
// length. The caller rebuilds the tables that depend on points or centers.
func clusterScenario(st *state, seed int64) (samples [4][]int32) {
	rng := rand.New(rand.NewSource(seed + 3000))
	dim, k := st.dim, st.k
	group := func(b int) int {
		switch {
		case b < 3:
			return 0
		case b < 8:
			return 1
		case b < 19:
			return 2
		}
		return 3
	}
	for b := 0; b < k; b++ {
		row := st.centers[b*dim : (b+1)*dim]
		for d := range row {
			row[d] = 20*float64(group(b)) + rng.Float64()
		}
		st.centerCols.SetVec(b, row)
	}
	vec := make([]float64, dim)
	for i := 0; i < st.X.Len(); i++ {
		b := rng.Intn(k)
		for d := range vec {
			vec[d] = st.centers[b*dim+d] + 0.5*rng.NormFloat64()
		}
		st.X.SetVec(i, vec)
		samples[group(b)] = append(samples[group(b)], int32(i))
	}
	return samples
}

// TestBlockedScanBreaksMidBlock drives the blocked arm through scans that
// stop inside a block. Each point of a clustered scenario runs alone, so
// its counters say where its scan stopped; kernel and scalar reference
// must agree on everything, DistCalcs included — the evaluated but
// unexamined rest of a block is nobody's business — and each rule (box
// order, anchored triangle walk, that walk with the raw column attached)
// must have stopped scans at positions that are not multiples of the
// block length, in the first block and beyond it.
func TestBlockedScanBreaksMidBlock(t *testing.T) {
	const n, k = 300, 32
	const block = 8 // geom's blockLen
	for _, dim := range []int{5, 16} {
		for _, arm := range []string{"box", "anchored", "raw"} {
			t.Run(fmt.Sprintf("dim=%d/%s", dim, arm), func(t *testing.T) {
				st, _ := kernelScenario(t, dim, n, k, BoundsHamerly, true, 41)
				if arm == "raw" {
					st, _ = rawScenario(t, dim, n, k, true, 41)
				}
				samples := clusterScenario(st, 41)
				if arm != "box" {
					st.scenarioCCTables()
				}
				pend := st.pendScaled
				start := captureRun(st, 0, 0, 0)
				var early, late int
				for _, sample := range samples[1:3] { // the groups of 5 and of 11
					st.scenarioTables(sample)
					for s := range sample {
						one := sample[s : s+1]
						ref := referenceRun(st, one, start, pend)
						got := runKernels(st, one, start, pend, 1)
						compareRuns(t, fmt.Sprintf("point %d", one[0]), got, ref)
						if got.br == 0 {
							continue
						}
						pos := got.dc // scan position of the break
						if arm != "box" && start.a[one[0]] >= 0 {
							pos-- // the anchor was evaluated ahead of the walk
						}
						switch {
						case pos%block == 0:
						case pos < block:
							early++
						default:
							late++
						}
					}
				}
				if early == 0 || late == 0 {
					t.Fatalf("%d scans stopped inside the first block, %d inside a later one; want both", early, late)
				}
			})
		}
	}
}

// zeroPadded returns a view of the scenario embedded in MaxDim+1
// dimensions: the same points and centers with zero columns appended,
// every table and per-point slice shared. Squared distances are unchanged
// to the bit (s + 0·0 = s), but the kernels now take the column-walk arm
// of their distance switch instead of the unrolled one.
func zeroPadded(st *state) *state {
	pad := *st
	pad.dim = geom.MaxDim + 1
	pad.X = geom.MakeCols(pad.dim, st.X.Len())
	pad.centerCols = geom.MakeCols(pad.dim, st.k)
	for d := 0; d < st.dim; d++ {
		copy(pad.X.Col[d], st.X.Col[d])
		copy(pad.centerCols.Col[d], st.centerCols.Col[d])
	}
	return &pad
}

// TestGenericKernelMatchesSpecialized pins the arms of the in-body
// distance switch to each other at the kernel level: a 2D/3D scenario and
// its zero-padded twin (which walks columns) must produce the same
// assignments, bounds, local weights and counters in every mode.
func TestGenericKernelMatchesSpecialized(t *testing.T) {
	check := func(t *testing.T, st *state, sample []int32) {
		pend := st.pendScaled
		start := captureRun(st, 0, 0, 0)
		spec := runKernels(st, sample, start, pend, 1)
		pad := zeroPadded(st)
		compareRuns(t, "serial", runKernels(pad, sample, start, pend, 1), spec)
		compareRuns(t, "sharded", runKernels(pad, sample, start, pend, 3), spec)
	}
	for _, dim := range []int{2, 3} {
		for _, bounds := range []BoundsKind{BoundsHamerly, BoundsElkan, BoundsNone} {
			for _, prune := range []bool{true, false} {
				t.Run(fmt.Sprintf("dim=%d/%s/prune=%v", dim, bounds, prune), func(t *testing.T) {
					for seed := int64(0); seed < 4; seed++ {
						st, sample := kernelScenario(t, dim, 1500, 11, bounds, prune, 400+seed)
						check(t, st, sample)
					}
				})
			}
		}
	}
	t.Run("raw", func(t *testing.T) {
		for _, dim := range []int{2, 3} {
			for _, prune := range []bool{true, false} {
				for seed := int64(0); seed < 4; seed++ {
					st, sample := rawScenario(t, dim, 1500, 11, prune, 500+seed)
					check(t, st, sample)
				}
			}
		}
	})
}

// TestGenericDist2MatchesSpecialized pins the elementwise accumulation
// order of the column-walk distance loop to the unrolled expressions: the
// one invariant the arms of the kernels' distance switch rely on.
func TestGenericDist2MatchesSpecialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		dim := 2 + trial%2
		var p, q geom.Point
		a := make([]float64, dim)
		b := make([]float64, dim)
		for d := 0; d < dim; d++ {
			v, w := rng.NormFloat64()*1e3, rng.NormFloat64()*1e3
			p[d], q[d] = v, w
			a[d], b[d] = v, w
		}
		want := geom.Dist2(p, q, dim)
		got := geom.Dist2Vec(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dim=%d: Dist2Vec %x, Dist2 %x", dim, got, want)
		}
	}
}

// FuzzKernelAssignMatchesReference throws adversarial inputs — NaN/Inf
// coordinates, coincident points, k > n, degenerate boxes — at the
// kernels in every mode and dimension class and demands the scalar
// reference's output (NaN for NaN, everything else bit for bit).
func FuzzKernelAssignMatchesReference(f *testing.F) {
	f.Add(int64(1), 0.5, 0.5, uint8(40), uint8(5), uint8(2), uint8(0))
	f.Add(int64(2), math.NaN(), math.Inf(1), uint8(3), uint8(7), uint8(3), uint8(1)) // k > n
	f.Add(int64(3), math.Inf(-1), 1e300, uint8(60), uint8(4), uint8(8), uint8(2))
	f.Add(int64(4), 0.0, 0.0, uint8(1), uint8(1), uint8(16), uint8(3))
	f.Add(int64(5), 0.25, math.Inf(1), uint8(90), uint8(12), uint8(1), uint8(4)) // anchored cold pass
	f.Add(int64(6), 0.5, 1e200, uint8(150), uint8(19), uint8(5), uint8(4))       // blocked arm: d=16, k=20, three blocks
	f.Add(int64(7), math.NaN(), 0.5, uint8(80), uint8(11), uint8(1), uint8(5))   // cold pass walking from curve anchors
	f.Fuzz(func(t *testing.T, seed int64, inj0, inj1 float64, nRaw, kRaw, dimRaw, modeRaw uint8) {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%20 + 1
		dims := []int{1, 2, 3, 4, 8, 16}
		dim := dims[int(dimRaw)%len(dims)]
		var st *state
		var sample []int32
		switch mode := int(modeRaw) % 6; mode {
		case 3:
			st, sample = rawScenario(t, dim, n, k, true, seed)
		case 4, 5:
			st, sample = kernelScenario(t, dim, n, k, BoundsHamerly, true, seed)
			st.scenarioCCTables()
			if mode == 5 {
				st.scenarioCurveBlocks(seed)
			}
		default:
			bounds := []BoundsKind{BoundsNone, BoundsHamerly, BoundsElkan}[mode]
			st, sample = kernelScenario(t, dim, n, k, bounds, true, seed)
		}
		// Hostile coordinates into point 0, point 1 copied onto point 2,
		// and the pruning tables rebuilt from the poisoned box.
		st.X.Col[0][0] = inj0
		st.X.Col[dim-1][0] = inj1
		if n > 2 {
			vec := make([]float64, dim)
			st.X.AtVec(1, vec)
			st.X.SetVec(2, vec)
		}
		st.scenarioTables(sample)
		checkAgainstReference(t, st, sample)
	})
}

// TestShardedPartitionValid runs the full pipeline with a forced worker
// pool and checks that sharding preserves balance, validity, and
// fixed-worker-count determinism.
func TestShardedPartitionValid(t *testing.T) {
	ps := uniformPoints(4000, 2, 91)
	cfg := DefaultConfig()
	cfg.Workers = 3

	run := func() partition.P {
		bkm := New(cfg)
		w := mpi.NewWorld(2)
		part, err := partition.Run(w, ps, 8, bkm)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Validate(false); err != nil {
			t.Fatal(err)
		}
		return part
	}
	a := run()
	imb := metrics.Imbalance(metrics.BlockWeights(ps, a.Assign, 8))
	if imb > 0.031 {
		t.Errorf("sharded imbalance %.4f > ε", imb)
	}
	b := run()
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("sharded run not deterministic at point %d", i)
		}
	}

	// The accumulation grid is independent of the worker count, so the
	// serial run must produce the exact same partition.
	cfg.Workers = 1
	bkm := New(cfg)
	w := mpi.NewWorld(2)
	part, err := partition.Run(w, ps, 8, bkm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != part.Assign[i] {
			t.Fatalf("workers=3 and workers=1 disagree at point %d", i)
		}
	}
}
