package core

import (
	"math"

	"geographer/internal/geom"
	"geographer/internal/mpi"
)

// assignAndBalance is Algorithm 1 of the paper: repeatedly assign every
// (sampled) local point to the cluster with the smallest *effective*
// distance dist(p,c)/influence(c), then adapt the influence values until
// the blocks are balanced or MaxBalanceIter rounds are spent, changing
// each influence by at most ±infCap per round. Returns whether the ε
// constraint was met.
//
// The assignment itself runs through the squared-space batch kernels of
// internal/geom: all per-(point,center) comparisons happen on
// dist²·invInfluence², so the O(n·k) inner loop is free of sqrt and
// division (see DESIGN.md, "Performance notes").
func (st *state) assignAndBalance(infCap float64) bool {
	sample := st.allIdx[:st.nSample] // the active sample prefix (sample.go)

	// The passes below (re)validate the stored bounds against the
	// current centers; remember them for cross-run carrying (warm.go).
	copy(st.boundCenters, st.centers)

	// Line 1: bounding box around the local (sampled) points, held flat
	// so any dimension fits. Only the positions the sample gained since
	// the last call are folded in (see boxN); once the sample is the
	// whole set (always, on the warm and unsampled paths) the box
	// and the sample weight are computed once and kept.
	if st.boxN < st.nSample {
		st.sampleW = geom.SampleBoxW(st.X.Col, st.W, st.boxN, st.nSample, st.bbMin, st.bbMax, st.sampleW)
		st.boxN = st.nSample
	}
	localSampleW := st.sampleW
	bbEmpty := geom.FlatBoxEmpty(st.bbMin, st.bbMax)

	// The global sample weight (to scale the block targets) and the
	// "anyone still sampling?" flag ride along in the per-round weight
	// collective (slots k and k+1 of localW) instead of costing two
	// collectives of their own; on the simulated runtime every collective
	// is three barrier crossings, which dominates the phase at high rank
	// counts. Summing the 0/1 sampling flags and testing > 0 is the
	// boolean max.
	totalTarget := 0.0
	for _, t := range st.targets {
		totalTarget += t
	}
	sampling := boolTo64(st.nSample < st.X.Len())
	scale := 1.0

	// Center-center tables for the anchored rescans of the Hamerly passes:
	// centers are fixed across the balance rounds below, so one build
	// serves them all. A pass carrying the raw shadow column cannot run
	// without them; the cold pass takes them when the build pays for
	// itself on this sample.
	st.ccBuilt = st.trackRaw ||
		(st.cfg.Bounds == BoundsHamerly && ccTablesPay(st.k, len(sample)))
	if st.ccBuilt {
		st.buildCCTables()
	}

	balanced := false

	for round := 0; round < st.cfg.MaxBalanceIter; round++ {
		// Without the curve bootstrap, stop after sampledBalanceRounds
		// while any rank samples. The test reads anySampling, which the
		// previous round's collective gave every rank alike; a rank's own
		// nSample would not do, since ranks of different sizes leave the
		// sample in different iterations and would part at different
		// rounds.
		if round == sampledBalanceRounds && st.anySampling && !st.cfg.SFCBootstrap {
			break
		}
		st.info.BalanceRounds++

		// Lines 2–6: per-round center tables — reciprocal influences, SoA
		// center columns, and the squared effective distance of every
		// center to the local box, centers sorted ascending (sound
		// pruning order; see DESIGN.md on the paper's maxDist typo).
		maxInf := 0.0
		for b := 0; b < st.k; b++ {
			inv := 1 / st.influence[b]
			st.invInf2[b] = inv * inv
			if st.influence[b] > maxInf {
				maxInf = st.influence[b]
			}
			row := st.centerRow(b)
			st.centerCols.SetVec(b, row)
			st.orderedCenters[b] = int32(b)
			if bbEmpty {
				st.distToBB2[b] = 0
			} else {
				st.distToBB2[b] = geom.FlatBoxMinDist2(st.bbMin, st.bbMax, row) * st.invInf2[b]
			}
			st.localW[b] = 0
		}
		if st.ccBuilt {
			// Effective distances are at least raw/maxInf, which turns a
			// raw-space bound — the triangle bound of an anchored rescan,
			// the raw shadow's floor under the skip test — into an
			// effective one; conservatively rounded so the division can
			// only loosen it.
			st.rawLbInv = (1 / maxInf) * (1 - boundSlack)
		}
		if st.cfg.BBoxPruning {
			sortCentersByDist(st.orderedCenters, st.distToBB2)
		}

		// Lines 8–30: assignment loop, dispatched to the batch kernels.
		distCalcs, skips, breaks := st.runAssignKernels(sample)
		st.info.DistCalcs += distCalcs
		st.info.HamerlySkips += skips
		st.info.BBoxBreaks += breaks
		st.info.Visits += int64(len(sample))
		st.c.AddOps(distCalcs + int64(len(sample)))

		// Line 31: the only communication of the balance routine. A run
		// that does not sample (warm, or cold with SampledInit off)
		// reduces exact accumulators instead of the kernel's
		// chunk-merged partials, and needs no sampling piggyback: its
		// sample is always the full set, whose exact weight was fixed at
		// init.
		var globalW []float64
		if !st.sampled {
			globalW = st.exactBlockWeights()
			if totalTarget > 0 {
				scale = st.totalW / totalTarget
			}
			st.anySampling = false
		} else {
			st.localW[st.k] = localSampleW
			st.localW[st.k+1] = float64(sampling)
			globalW = mpi.AllreduceSum(st.c, st.localW)
			if totalTarget > 0 {
				scale = globalW[st.k] / totalTarget
			}
			st.anySampling = globalW[st.k+1] > 0
		}

		// Line 32: balanced?
		imb := 0.0
		for b := 0; b < st.k; b++ {
			target := st.targets[b] * scale
			if target <= 0 {
				continue
			}
			if r := globalW[b]/target - 1; r > imb {
				imb = r
			}
		}
		st.info.Imbalance = imb
		if imb <= st.cfg.Epsilon {
			balanced = true
			break
		}

		// Lines 35–37: adapt influence values (Eq. (1), direction
		// corrected, capped at ±infCap per round; see DESIGN.md).
		copy(st.oldInfluence, st.influence)
		lo, hi := 1-infCap, 1+infCap
		for b := 0; b < st.k; b++ {
			target := st.targets[b] * scale
			if target <= 0 {
				continue
			}
			gamma := globalW[b] / target // current/target
			var factor float64
			if gamma <= 0 {
				factor = hi // empty block: grow as fast as allowed
			} else {
				factor = math.Pow(gamma, -1/float64(st.dim))
				if factor < lo {
					factor = lo
				}
				if factor > hi {
					factor = hi
				}
			}
			st.influence[b] *= factor
			if st.influence[b] < 1e-10 {
				st.influence[b] = 1e-10
			}
			if st.influence[b] > 1e10 {
				st.influence[b] = 1e10
			}
		}

		// Lines 38–39: bounds must follow the influence change; the
		// rescale is left pending for the next round's kernel pass.
		st.scaleBoundsForInfluence(st.oldInfluence)
	}

	// A pending rescale survives only the exhausted-unbalanced exit;
	// materialize it so the additive Eq. (4)–(5) updates (and the next
	// caller) read correctly scaled bounds.
	st.applyPendingBounds()

	st.info.Balanced = balanced
	return balanced
}

// sortCentersByDist orders the center ids ascending by (dist2[id], id).
// An insertion sort beats sort.Slice here: k is small, the sort runs
// once per balance round, and the reflection-based swapper plus closure
// of sort.Slice showed up in profiles of the k-means phase.
func sortCentersByDist(ids []int32, dist2 []float64) {
	for i := 1; i < len(ids); i++ {
		id := ids[i]
		d := dist2[id]
		j := i - 1
		for j >= 0 && (dist2[ids[j]] > d || (dist2[ids[j]] == d && ids[j] > id)) {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = id
	}
}

// ccTablesPay is the cost rule that decides whether a cold Hamerly call
// over a sample of s points builds the k×k center-center tables. A build
// costs 25 µs / 160 µs / 0.7 ms / 4.5 ms / 30 ms at k = 32 / 64 / 128 /
// 256 / 512 (BenchmarkBuildCCTables; the per-row insertion sort makes it
// cubic, 0.8 ns·k³ at k = 32 falling to 0.2 ns·k³) and a balance round
// ≈ 4.4 ns per sampled point at d = 2 (mostly skips; the
// geom.assign_bounded_ns_per_point layer of four traced cold_mesh2d
// passes read 3.8–5.0 ns since the cold pass at d = 2, 3 runs
// straight-line bodies, 6.7–7.0 before). The rule was fitted when a
// call ran ~9 rounds at ≈ 6 ns (≈ 55 ns per point, build ≤ 0.8·4/55 ≈
// 6 %); a sampled call without the curve bootstrap now stops at
// sampledBalanceRounds = 8, ≈ 35 ns per point, which puts the build at
// ≤ 0.8·4/35 ≈ 9 % of the call it serves. Past that the rescans the walk shortens are too
// few to repay the tables — at n = 100 000, k = 32 that is p ≥ 16, where
// each rank's box isolates a few blocks and the box-ordered scan already
// stops after ~5 centers — and a large k never allocates k² entries.
// Both inputs are values the rank can see, and the output does not
// depend on the outcome (DESIGN.md, "Anchored rescans").
func ccTablesPay(k, s int) bool {
	fk := float64(k) // k³ overflows int64 past k = 2²¹
	return fk*fk*fk <= 4*float64(s)
}

// kernelChunks returns the accumulation grid for a sample of n points:
// the machine-independent grid shared with the other batch kernels
// (geom.ChunkGrid), so the per-chunk weight partials always merge in
// the same floating-point order and partition output stays bit-identical
// across machines and worker settings (see DESIGN.md).
func kernelChunks(n int) int { return geom.ChunkGrid(n) }

// runAssignKernels executes one assignment pass over the sample through
// the squared-space batch kernels. The sample is split on the fixed
// chunk grid of kernelChunks; the intra-rank worker pool processes
// chunks concurrently when it has more than one worker. Per-point
// outputs (A, ub, lb, lbk) are written to disjoint indices; per-chunk
// weight accumulators and counters are merged in chunk order afterwards,
// so the pass is deterministic — independent of the worker count — and
// the balance routine still issues exactly one collective per round.
func (st *state) runAssignKernels(sample []int32) (distCalcs, skips, breaks int64) {
	hamerly := st.cfg.Bounds == BoundsHamerly
	elkan := st.cfg.Bounds == BoundsElkan

	nc := kernelChunks(len(sample))
	chunk := (len(sample) + nc - 1) / nc

	// Shared kernel template: every chunk sees the same tables and
	// per-point slices, but keeps private LocalW, point scratch and counters.
	template := geom.AssignKernel{
		PX: st.X.X, PY: st.X.Y, PZ: st.X.Z, W: st.W,
		CX: st.centerCols.X, CY: st.centerCols.Y, CZ: st.centerCols.Z,
		PC: st.X.Col, CC: st.centerCols.Col,
		InvInf2: st.invInf2,
		Order:   st.orderedCenters, DistBB2: st.distToBB2, Prune: st.cfg.BBoxPruning,
		K: st.k,
		A: st.A, Ub: st.ub, Lb: st.lb, Lbk: st.lbk,
	}
	if st.ccBuilt {
		template.CCOrder = st.ccOrder
		template.CCDist = st.ccDist
		template.RawLbInv = st.rawLbInv
		template.Anchor = st.curveBlock
	}
	if st.trackRaw {
		template.RawLb = st.rlb
	}
	if st.pendScaled {
		template.UbScale = st.pendUbRatio
		template.LbScale = st.pendLbRatio
	}
	for s := 0; s < nc; s++ {
		kr := &st.shards[s]
		localW, q := kr.LocalW, kr.Q
		*kr = template
		kr.LocalW, kr.Q = localW, q
		clear(kr.LocalW)
	}

	chunkSlice := func(s int) []int32 {
		lo := s * chunk
		hi := lo + chunk
		if hi > len(sample) {
			hi = len(sample)
		}
		return sample[lo:hi]
	}

	// The fan-out itself goes through the leased worker budget
	// (internal/sched): the rank goroutine always runs chunks inline,
	// helpers join only while both the tenant's lease and the process
	// pool have spare tokens. Token droughts shrink the worker set,
	// never the chunk grid, so output is unaffected.
	st.lease.ForEach(st.workers, nc, func(s int) {
		kr, idx := &st.shards[s], chunkSlice(s)
		if elkan {
			kr.RunElkan(idx)
		} else {
			kr.RunBounded(st.dim, idx, hamerly)
		}
	})

	// The pass visited every sampled point, so a pending influence
	// rescale has been applied (Hamerly) or overwritten by fresh bounds
	// (Elkan, which never reads ub between rescale and rewrite).
	st.pendScaled = false

	// Merge in chunk order: the summation order is a function of the
	// sample size alone, never of how many workers ran the chunks.
	for s := 0; s < nc; s++ {
		kr := &st.shards[s]
		for b := 0; b < st.k; b++ {
			st.localW[b] += kr.LocalW[b]
		}
		distCalcs += kr.DistCalcs
		skips += kr.Skips
		breaks += kr.Breaks
	}
	return distCalcs, skips, breaks
}
