// Package baselines re-implements the geometric partitioners Geographer is
// compared against (paper §3.1, §5.2.2): Recursive Coordinate Bisection
// (RCB), Recursive Inertial Bisection (RIB), the MultiJagged multisection
// algorithm (MJ), and Hilbert space-filling-curve partitioning (HSFC),
// i.e. the relevant Zoltan toolbox methods.
//
// RCB, RIB and MJ share one distributed engine: at every level the active
// subproblems choose a cut direction, locate weighted cut positions by a
// collective bisection search, and migrate points so that each child
// subproblem is owned by a contiguous rank subgroup. Recursion continues
// locally once a subgroup shrinks to a single rank. The per-level
// migration all-to-alls are exactly why the recursive methods scale worse
// than single-shot methods in the paper's Figures 3 and 4: RCB/RIB pay
// ⌈log₂ k⌉ migration rounds, MJ only ⌈levels⌉ = dim, HSFC one sort.
package baselines

import (
	"fmt"
	"math"
	"sort"

	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// bisectionRounds is the number of collective binary-search rounds used to
// locate each weighted cut: the cut value is resolved to 2⁻⁴⁰ of the
// projection range, far below point spacing.
const bisectionRounds = 40

// method customizes the shared engine per algorithm.
type method interface {
	name() string
	needsCovariance() bool
	// plan returns the cut direction and the per-child block counts for a
	// subproblem with k blocks at the given recursion level.
	plan(k, level, dim int, box geom.Box, cov *covariance) (dir geom.Point, parts []int)
}

// covariance carries the weighted second-moment statistics of one
// subproblem (needed by RIB's inertial axis).
type covariance struct {
	W   float64
	Sum geom.Point // Σ w·x
	XX  [6]float64 // Σ w·x⊗x upper triangle: xx, xy, xz, yy, yz, zz
}

func (cv *covariance) accumulate(x geom.Point, w float64, dim int) {
	cv.W += w
	for d := 0; d < dim; d++ {
		cv.Sum[d] += w * x[d]
	}
	cv.XX[0] += w * x[0] * x[0]
	cv.XX[1] += w * x[0] * x[1]
	cv.XX[3] += w * x[1] * x[1]
	if dim == 3 {
		cv.XX[2] += w * x[0] * x[2]
		cv.XX[4] += w * x[1] * x[2]
		cv.XX[5] += w * x[2] * x[2]
	}
}

// principalAxis returns the dominant eigenvector of the weighted
// covariance matrix via power iteration (deterministic start).
func (cv *covariance) principalAxis(dim int) geom.Point {
	if cv.W <= 0 {
		return geom.Point{1, 0, 0}
	}
	var mean geom.Point
	for d := 0; d < dim; d++ {
		mean[d] = cv.Sum[d] / cv.W
	}
	// C = E[xxᵀ] − μμᵀ
	var c [3][3]float64
	c[0][0] = cv.XX[0]/cv.W - mean[0]*mean[0]
	c[0][1] = cv.XX[1]/cv.W - mean[0]*mean[1]
	c[1][1] = cv.XX[3]/cv.W - mean[1]*mean[1]
	c[1][0] = c[0][1]
	if dim == 3 {
		c[0][2] = cv.XX[2]/cv.W - mean[0]*mean[2]
		c[1][2] = cv.XX[4]/cv.W - mean[1]*mean[2]
		c[2][2] = cv.XX[5]/cv.W - mean[2]*mean[2]
		c[2][0] = c[0][2]
		c[2][1] = c[1][2]
	}
	v := geom.Point{1, 0.7, 0.4} // deterministic non-axis start
	v = v.Scale(1 / math.Sqrt(v.Dot(v, dim)))
	for it := 0; it < 50; it++ {
		var nv geom.Point
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				nv[i] += c[i][j] * v[j]
			}
		}
		norm := math.Sqrt(nv.Dot(nv, dim))
		if norm < 1e-30 {
			break // degenerate covariance (e.g. a single point): keep v
		}
		v = nv.Scale(1 / norm)
	}
	for d := dim; d < geom.MaxDim; d++ {
		v[d] = 0
	}
	return v
}

// splitBlocks distributes k blocks over s children as evenly as possible.
func splitBlocks(k, s int) []int {
	parts := make([]int, s)
	base, rem := k/s, k%s
	for i := range parts {
		parts[i] = base
		if i < rem {
			parts[i]++
		}
	}
	return parts
}

// sub is one subproblem: a contiguous block range owned by a contiguous
// rank subgroup. All ranks maintain identical sub tables (every update is
// derived from collective results).
type sub struct {
	blockLo, blockHi int32 // blocks [blockLo, blockHi)
	rankLo, rankHi   int   // ranks [rankLo, rankHi)
	level            int
}

func (s sub) k() int     { return int(s.blockHi - s.blockLo) }
func (s sub) ranks() int { return s.rankHi - s.rankLo }

// dpoint is a migrating point record.
type dpoint struct {
	ID  int64
	W   float64
	X   geom.Point
	Sub int32
}

// engine runs the shared distributed recursion for method m.
type engine struct {
	m method
}

// Partition implements partition.Distributed (via the method wrappers).
func (e *engine) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("baselines: k=%d", k)
	}
	dim := pts.X.Dim
	p := c.Size()

	local := make([]dpoint, pts.Len())
	for i := range local {
		local[i] = dpoint{ID: pts.IDs[i], W: pts.W[i]}
		pts.X.AtVec(i, local[i].X[:])
	}
	subs := []sub{{blockLo: 0, blockHi: int32(k), rankLo: 0, rankHi: p}}

	// ---- World phase: cut subproblems owned by >1 rank, migrating points.
	for {
		active := make([]int, 0, len(subs))
		for i, s := range subs {
			if s.k() > 1 && s.ranks() > 1 {
				active = append(active, i)
			}
		}
		if mpi.ReduceScalarMax(c, int64(len(active))) == 0 {
			break
		}

		// Collective per-sub statistics: bounding box, weight, covariance.
		nSubs := len(subs)
		mins := make([]float64, nSubs*3)
		maxs := make([]float64, nSubs*3)
		for i := range mins {
			mins[i] = math.Inf(1)
			maxs[i] = math.Inf(-1)
		}
		covVec := make([]float64, nSubs*10)
		for _, pt := range local {
			si := int(pt.Sub)
			for d := 0; d < dim; d++ {
				if pt.X[d] < mins[si*3+d] {
					mins[si*3+d] = pt.X[d]
				}
				if pt.X[d] > maxs[si*3+d] {
					maxs[si*3+d] = pt.X[d]
				}
			}
			base := si * 10
			covVec[base] += pt.W
			covVec[base+1] += pt.W * pt.X[0]
			covVec[base+2] += pt.W * pt.X[1]
			covVec[base+3] += pt.W * pt.X[2]
			if e.m.needsCovariance() {
				covVec[base+4] += pt.W * pt.X[0] * pt.X[0]
				covVec[base+5] += pt.W * pt.X[0] * pt.X[1]
				covVec[base+6] += pt.W * pt.X[0] * pt.X[2]
				covVec[base+7] += pt.W * pt.X[1] * pt.X[1]
				covVec[base+8] += pt.W * pt.X[1] * pt.X[2]
				covVec[base+9] += pt.W * pt.X[2] * pt.X[2]
			}
		}
		mins = mpi.AllreduceMin(c, mins)
		maxs = mpi.AllreduceMax(c, maxs)
		covVec = mpi.AllreduceSum(c, covVec)
		c.AddOps(int64(len(local)))

		// Deterministic plans on every rank.
		type cutPlan struct {
			subIdx int
			dir    geom.Point
			parts  []int
			fracs  []float64 // cumulative target weight fractions (len parts-1)
			lo, hi float64   // projection search range
			mids   []float64
			totalW float64
		}
		plans := make([]cutPlan, 0, len(active))
		totalCuts := 0
		for _, si := range active {
			s := subs[si]
			box := geom.Box{Dim: dim}
			for d := 0; d < dim; d++ {
				box.Min[d] = mins[si*3+d]
				box.Max[d] = maxs[si*3+d]
			}
			cv := &covariance{
				W:   covVec[si*10],
				Sum: geom.Point{covVec[si*10+1], covVec[si*10+2], covVec[si*10+3]},
				XX: [6]float64{covVec[si*10+4], covVec[si*10+5], covVec[si*10+6],
					covVec[si*10+7], covVec[si*10+8], covVec[si*10+9]},
			}
			dir, parts := e.m.plan(s.k(), s.level, dim, box, cv)
			// Every child needs at least one owning rank; if the plan wants
			// more parts than the subgroup has ranks, coarsen the cut and
			// let later levels (or the local phase) finish the split.
			if len(parts) > s.ranks() {
				parts = splitBlocks(s.k(), s.ranks())
			}
			pl := cutPlan{subIdx: si, dir: dir, parts: parts, totalW: cv.W}
			kSum := 0
			for _, kc := range parts[:len(parts)-1] {
				kSum += kc
				pl.fracs = append(pl.fracs, float64(kSum)/float64(s.k()))
			}
			// Projection range from box corners (safe bound for any dir).
			lo, hi := math.Inf(1), math.Inf(-1)
			if box.Empty() {
				lo, hi = 0, 1 // empty sub: cuts are irrelevant
			} else {
				for corner := 0; corner < 1<<dim; corner++ {
					var pcorner geom.Point
					for d := 0; d < dim; d++ {
						if corner&(1<<d) != 0 {
							pcorner[d] = box.Max[d]
						} else {
							pcorner[d] = box.Min[d]
						}
					}
					v := pcorner.Dot(dir, dim)
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
			}
			pl.lo, pl.hi = lo, hi
			totalCuts += len(pl.fracs)
			plans = append(plans, pl)
		}

		// Collective bisection for all cuts of all active subs at once.
		cutLo := make([]float64, totalCuts)
		cutHi := make([]float64, totalCuts)
		idx := 0
		for pi := range plans {
			for range plans[pi].fracs {
				cutLo[idx] = plans[pi].lo
				cutHi[idx] = plans[pi].hi
				idx++
			}
		}
		proj := make([]float64, len(local))
		subOfCut := make([]int32, totalCuts)
		planOfSub := make(map[int32]int, len(plans))
		cutBase := make([]int, len(plans))
		idx = 0
		for pi := range plans {
			cutBase[pi] = idx
			planOfSub[int32(plans[pi].subIdx)] = pi
			for range plans[pi].fracs {
				subOfCut[idx] = int32(plans[pi].subIdx)
				idx++
			}
		}
		for i, pt := range local {
			if pi, ok := planOfSub[pt.Sub]; ok {
				proj[i] = pt.X.Dot(plans[pi].dir, dim)
			}
		}
		weightBelow := make([]float64, totalCuts)
		for round := 0; round < bisectionRounds; round++ {
			for ci := range weightBelow {
				weightBelow[ci] = 0
			}
			for i, pt := range local {
				pi, ok := planOfSub[pt.Sub]
				if !ok {
					continue
				}
				base := cutBase[pi]
				for ci := range plans[pi].fracs {
					mid := 0.5 * (cutLo[base+ci] + cutHi[base+ci])
					if proj[i] < mid {
						weightBelow[base+ci] += pt.W
					}
				}
			}
			global := mpi.AllreduceSum(c, weightBelow)
			c.AddOps(int64(len(local)))
			for ci := range global {
				pi := planOfSub[subOfCut[ci]]
				target := plans[pi].fracs[ci-cutBase[pi]] * plans[pi].totalW
				mid := 0.5 * (cutLo[ci] + cutHi[ci])
				if global[ci] < target {
					cutLo[ci] = mid
				} else {
					cutHi[ci] = mid
				}
			}
		}

		// Build child sub table (deterministically on every rank).
		newSubs := make([]sub, 0, len(subs)+totalCuts)
		remap := make([]int32, len(subs))      // old inactive sub -> new index
		childBase := make([]int32, len(plans)) // first child index per plan
		isActive := make([]bool, len(subs))
		for _, si := range active {
			isActive[si] = true
		}
		for si, s := range subs {
			if !isActive[si] {
				remap[si] = int32(len(newSubs))
				newSubs = append(newSubs, s)
				continue
			}
			pi := planOfSub[int32(si)]
			childBase[pi] = int32(len(newSubs))
			parts := plans[pi].parts
			// Rank subgroup split proportional to block counts.
			ranks := s.ranks()
			bLo := s.blockLo
			rLo := s.rankLo
			kTot := s.k()
			kAcc := 0
			for ci, kc := range parts {
				kAcc += kc
				var rHi int
				if ci == len(parts)-1 {
					rHi = s.rankHi
				} else {
					rHi = s.rankLo + int(math.Round(float64(ranks)*float64(kAcc)/float64(kTot)))
					if rHi <= rLo {
						rHi = rLo + 1
					}
					if rHi > s.rankHi-(len(parts)-1-ci) {
						rHi = s.rankHi - (len(parts) - 1 - ci)
					}
				}
				newSubs = append(newSubs, sub{
					blockLo: bLo, blockHi: bLo + int32(kc),
					rankLo: rLo, rankHi: rHi,
					level: s.level + 1,
				})
				bLo += int32(kc)
				rLo = rHi
			}
		}

		// Route points: child sub index, destination rank within its group.
		send := make([][]dpoint, p)
		kept := local[:0]
		for i, pt := range local {
			pi, ok := planOfSub[pt.Sub]
			if !ok {
				pt.Sub = remap[pt.Sub]
				kept = append(kept, pt)
				continue
			}
			base := cutBase[pi]
			interval := 0
			for ci := range plans[pi].fracs {
				if proj[i] >= 0.5*(cutLo[base+ci]+cutHi[base+ci]) {
					interval = ci + 1
				}
			}
			childIdx := childBase[pi] + int32(interval)
			child := newSubs[childIdx]
			span := child.ranks()
			dst := child.rankLo + int(uint64(pt.ID)%uint64(span))
			pt.Sub = childIdx
			if dst == c.Rank() {
				kept = append(kept, pt)
			} else {
				send[dst] = append(send[dst], pt)
			}
		}
		recv := mpi.Alltoall(c, send)
		local = kept
		for _, chunk := range recv {
			local = append(local, chunk...)
		}
		subs = newSubs
	}

	// ---- Local phase: every remaining multi-block sub lives on one rank.
	blocks := make([]int32, len(local))
	bySub := make(map[int32][]int)
	for i, pt := range local {
		s := subs[pt.Sub]
		if s.k() == 1 {
			blocks[i] = s.blockLo
		} else {
			bySub[pt.Sub] = append(bySub[pt.Sub], i)
		}
	}
	for si, idxs := range bySub {
		s := subs[si]
		e.localRecurse(local, blocks, idxs, s.blockLo, s.k(), s.level, dim, c)
	}

	ids := make([]int64, len(local))
	for i, pt := range local {
		ids[i] = pt.ID
	}
	return ids, blocks, nil
}

// localRecurse performs the sequential recursion once a subproblem is
// rank-local: exact weighted splits via sorting by projection.
func (e *engine) localRecurse(local []dpoint, blocks []int32, idxs []int, blockLo int32, k, level, dim int, c *mpi.Comm) {
	if k == 1 || len(idxs) == 0 {
		for _, i := range idxs {
			blocks[i] = blockLo
		}
		return
	}
	box := geom.EmptyBox(dim)
	cv := &covariance{}
	for _, i := range idxs {
		box.Extend(local[i].X)
		cv.accumulate(local[i].X, local[i].W, dim)
	}
	dir, parts := e.m.plan(k, level, dim, box, cv)
	c.AddOps(int64(len(idxs)))

	sort.Slice(idxs, func(a, b int) bool {
		pa := local[idxs[a]].X.Dot(dir, dim)
		pb := local[idxs[b]].X.Dot(dir, dim)
		if pa != pb {
			return pa < pb
		}
		return local[idxs[a]].ID < local[idxs[b]].ID
	})
	totalW := cv.W
	kAcc, start := 0, 0
	cum := 0.0
	bLo := blockLo
	for ci, kc := range parts {
		kAcc += kc
		end := len(idxs)
		if ci < len(parts)-1 {
			target := totalW * float64(kAcc) / float64(k)
			end = start
			for end < len(idxs) && cum+local[idxs[end]].W <= target+1e-12 {
				cum += local[idxs[end]].W
				end++
			}
		}
		e.localRecurse(local, blocks, idxs[start:end], bLo, kc, level+1, dim, c)
		start = end
		bLo += int32(kc)
	}
}
