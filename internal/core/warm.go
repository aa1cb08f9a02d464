package core

// This file holds the exact (order-independent) reductions of the
// warm-start repartitioning path (PartitionResident): the ingest pipeline
// of §4.1 is skipped entirely — see Ingest/PartitionResident in
// session.go for the state lifetime — and every global float reduction
// runs through internal/exact, which makes the output bit-identical
// across rank and worker counts (DESIGN.md, "Repartitioning
// invariants").

import (
	"geographer/internal/exact"
	"geographer/internal/geom"
	"geographer/internal/mpi"
)

// boundSlack inflates the cross-run drift corrections by a few ulps so
// that the handful of float64 roundings in prepareCarried can only ever
// *loosen* a bound, never tighten it below its true value. A loose
// bound costs one redundant recompute; a too-tight one would let a skip
// keep a stale assignment and break the bit-identicality contract.
const boundSlack = 4e-16

// carryOK reports whether the previous warm run's per-point state can
// seed this run incrementally. All checks are rank-local; a rank that
// falls back to resetRun while others carry produces the same output
// (carried bounds are conservative, so skipped points keep assignments
// a fresh argmin would recompute identically).
func (st *state) carryOK() bool {
	ok := st.warm && st.carryValid &&
		st.carryBounds == st.cfg.Bounds && st.cfg.Bounds != BoundsNone &&
		st.carryK == st.k && len(st.boundCenters) == st.k*st.dim
	if ok && st.cfg.Bounds == BoundsHamerly && len(st.rlb) != len(st.A) {
		return false // raw shadow missing: nothing sound to carry
	}
	return ok
}

// boundaryFraction caps the boundary-worklist mode of an incremental
// warm step: when more than this fraction of the local points are
// boundary points, the first pass falls back to streaming the full
// point set. Beyond it the sparse gather loses its locality edge over
// streaming the full columns, and the corrected bounds already skip
// interior points point-by-point on the full pass.
const boundaryFraction = 0.6

// prepareCarried is resetRun for an incremental warm run: instead of
// resetting assignments and bounds to "unknown", the values left by the
// previous warm run are corrected for everything that changed between
// the runs — each center's drift from the position the bounds were
// valid against (boundCenters) to this run's warm seed (st.centers),
// and the influence rescale from the previous run's final influences
// back to the fresh all-ones (the eager materialization of the same
// per-center ratios scaleBoundsForInfluence leaves pending within a
// run; here the pass doubles as the boundary-worklist build, so the
// lazy form has nothing left to fuse into). The inequalities (DESIGN.md,
// "Incremental bound invariants"):
//
//	ub' = ub·inf_prev[a] + ‖c_a − c'_a‖     ((near-)exact raw distance + drift)
//	lb' = rlb − max_b ‖c_b − c'_b‖          (raw shadow: no influence loss)
//	lbk'[b] = lbk[b] − ‖c_b − c'_b‖         (Elkan, raw-distance space)
//
// In Hamerly mode the pass also collects the boundary points — those
// whose corrected bounds cross (ub' ≥ lb') and therefore need a fresh
// argmin — into st.worklist; when their fraction stays under
// boundaryFraction, the first kernel pass runs over the worklist
// alone and never gathers interior points at all.
func (st *state) prepareCarried() {
	// Per-run values that reset exactly as in resetRun. Influences are
	// read by the correction loops below and reset at the end.
	st.nSample = st.X.Len()
	st.resetBox()
	st.pendScaled = false
	st.anySampling = false
	st.useWorklist = false

	maxDrift := 0.0
	for b := 0; b < st.k; b++ {
		d := geom.DistVec(st.boundCenters[b*st.dim:(b+1)*st.dim], st.centerRow(b)) * (1 + boundSlack)
		st.perCenter[b] = d
		if d > maxDrift {
			maxDrift = d
		}
	}

	switch st.cfg.Bounds {
	case BoundsHamerly:
		st.worklist = st.worklist[:0]
		for i := range st.A {
			a := st.A[i]
			if a < 0 {
				// Never happens after a completed warm run; kept so a
				// stray unassigned point is recomputed, not trusted.
				st.worklist = append(st.worklist, int32(i))
				continue
			}
			// ub·inf_prev[a] is the (near-)exact raw distance to the
			// assigned center; the raw shadow needs no influence term at
			// all — that losslessness is why it exists.
			u := (st.ub[i]*st.influence[a] + st.perCenter[a]) * (1 + boundSlack)
			l := st.rlb[i] - maxDrift
			if l > 0 {
				l *= 1 - boundSlack
			}
			st.ub[i] = u
			st.lb[i] = l // influences are all 1: effective = raw
			st.rlb[i] = l
			if !(u < l) {
				st.worklist = append(st.worklist, int32(i))
			}
		}
		st.info.BoundaryPoints = int64(len(st.worklist))
		frac := 1.0
		if n := len(st.A); n > 0 {
			frac = float64(len(st.worklist)) / float64(n)
		}
		st.useWorklist = frac <= boundaryFraction
	case BoundsElkan:
		// Elkan's per-center bounds live in raw-distance space and every
		// point is visited each pass anyway (the current center's
		// distance is always recomputed), so there is no worklist mode —
		// the carried lbk skip per-candidate distance evaluations
		// instead.
		for i := range st.A {
			if a := st.A[i]; a >= 0 {
				st.ub[i] = (st.ub[i]*st.influence[a] + st.perCenter[a]) * (1 + boundSlack)
			}
			base := i * st.k
			for b := 0; b < st.k; b++ {
				l := st.lbk[base+b] - st.perCenter[b]
				if l > 0 {
					l *= 1 - boundSlack
				}
				st.lbk[base+b] = l
			}
		}
		st.info.BoundaryPoints = int64(st.X.Len())
	}
	st.info.CarriedBounds = true

	for b := range st.influence {
		st.influence[b] = 1
	}
}

// buildCCTables fills the center-center tables of the anchored Hamerly
// rescans: for every center a, the other centers in ascending raw
// distance from it (a itself pinned first) plus the matching distances,
// deflated by boundSlack so the kernels' triangle bound (ccDist −
// rawdist(p,c_a)) stays below its true value under rounding. Centers are
// fixed across the balance rounds of one assignAndBalance call, so this
// runs once per call — k² distances and k insertion sorts against the
// thousands of point-center evaluations the anchored breaks save
// (ccTablesPay is the cold path's version of that trade). The first
// build at a given k allocates the tables.
func (st *state) buildCCTables() {
	k := st.k
	if len(st.ccDist) != k*k {
		st.ccDist = make([]float64, k*k)
		st.ccOrder = make([]int32, k*k)
	}
	tmp := st.perCenter // per-center scratch; consumers recompute it later
	for a := 0; a < k; a++ {
		row := st.ccOrder[a*k : a*k+k]
		ra := st.centerRow(a)
		for b := 0; b < k; b++ {
			tmp[b] = geom.DistVec(ra, st.centerRow(b))
			row[b] = int32(b)
		}
		row[0], row[a] = row[a], row[0]
		sortCentersByDist(row[1:], tmp)
		for j, id := range row {
			st.ccDist[a*k+j] = tmp[id] * (1 - boundSlack)
		}
	}
}

// recordCarry snapshots, at the end of a warm run, everything the next
// warm run on this state needs to reuse the stored bounds: the validity
// reference (boundCenters already tracks the centers of the most recent
// kernel pass; st.influence holds the final influence values and is
// only reset after prepareCarried reads it), the bounds mode, and k. A
// pending influence rescale is materialized first so the stored ub/lb
// are what the next run's corrections expect.
func (st *state) recordCarry() {
	st.carryValid = false
	if !st.warm || st.cfg.Bounds == BoundsNone {
		return
	}
	st.applyPendingBounds()
	st.carryBounds = st.cfg.Bounds
	st.carryK = st.k
	st.carryValid = true
}

// syncOwnBanks brings this rank's own accumulator banks in line with
// the current assignment: the per-block weights (ownW) and the weighted
// coordinate sums plus weight per block (ownC, stride dim+1). Limbs are
// un-normalized signed integers, so taking a point out of its old block
// with Sub and putting it into the new one with Add leaves exactly the
// integers a bank rebuilt from the new assignment would hold — the cost
// is per point that moved, the result is bit-identical. fl(w·x) is a
// function of the point alone and points are fixed within a run, so the
// removed term is the added one.
//
// The first call of a run has nothing to trust (initCentersAndTargets
// dropped ownValid): it empties the banks and marks every point as not
// held, which turns the same loop into the full rebuild.
func (st *state) syncOwnBanks() {
	if !st.ownValid {
		st.ownW.Reset()
		st.ownC.Reset()
		for i := range st.ownA {
			st.ownA[i] = -1
		}
		st.ownValid = true
	}
	stride := st.dim + 1
	cols := st.X.Col
	for i, a := range st.A {
		old := st.ownA[i]
		if a == old {
			continue
		}
		st.ownA[i] = a
		w := st.W[i]
		if old >= 0 {
			st.ownW.Sub(int(old), w)
			base := int(old) * stride
			for d, col := range cols {
				st.ownC.Sub(base+d, w*col[i])
			}
			st.ownC.Sub(base+st.dim, w)
		}
		if a >= 0 {
			st.ownW.Add(int(a), w)
			base := int(a) * stride
			for d, col := range cols {
				st.ownC.Add(base+d, w*col[i])
			}
			st.ownC.Add(base+st.dim, w)
		}
	}
}

// exactBlockWeights returns the global per-block sample weights of the
// current assignment through the exact accumulator bank: one local diff
// pass (syncOwnBanks), one windowed integer reduction (keeping the
// balance routine at a single collective per round), one rounding per
// block at the end. Any grouping of points into ranks or chunks
// produces the same limbs, hence the same float64 weights everywhere.
// The wire bank's backing array is the wire — the own bank's window is
// copied in, nothing is encoded — and only the touched exponent-row
// window is exchanged and folded, in place, so the per-round collective
// allocates nothing and moves ~10× fewer bytes than a dense k·WireLen
// reduction. The kernel's chunk-merged st.localW partials are ignored on
// this path — their summation order depends on the rank layout.
func (st *state) exactBlockWeights() []float64 {
	st.syncOwnBanks()
	st.exactW.CopyFrom(st.ownW)
	off, seg := st.exactW.Wire()
	lo, ln := mpi.AllreduceSumSparse(st.c, exact.WireLen*st.k, off, seg, st.exactW.Backing())
	st.exactW.SetWindow(lo, ln)
	out := st.localW[:st.k]
	for b := range out {
		out[b] = st.exactW.Float64(b)
	}
	return out
}

// computeCentersExact is computeCenters for the warm and deterministic
// paths: the weighted coordinate sums go through exact accumulators and
// one integer reduction, so the new centers are bit-identical
// regardless of the rank layout. The per-term fl(w·x) rounding is a
// deterministic function of each point alone; only the summation order
// had to be neutralized. Both callers run on the full point set
// (warm never samples; Deterministic forces SampledInit off), so the own
// banks cover the whole sample. No kernel pass runs between an
// iteration's last balance collective and this call, so the diff pass
// normally finds nothing to move: the center sums were maintained along
// with the block weights.
func (st *state) computeCentersExact(out []float64) bool {
	stride := st.dim + 1
	st.syncOwnBanks()
	st.exactC.CopyFrom(st.ownC)
	st.c.AddOps(int64(st.X.Len()))

	m := st.k * stride
	off, seg := st.exactC.Wire()
	lo, ln := mpi.AllreduceSumSparse(st.c, exact.WireLen*m, off, seg, st.exactC.Backing())
	st.exactC.SetWindow(lo, ln)

	any := false
	for b := 0; b < st.k; b++ {
		base := b * stride
		obase := b * st.dim
		w := st.exactC.Float64(base + st.dim)
		if w <= 0 {
			copy(out[obase:obase+st.dim], st.centerRow(b))
			continue
		}
		any = true
		for d := 0; d < st.dim; d++ {
			out[obase+d] = st.exactC.Float64(base+d) / w
		}
	}
	return any
}

// exactTotalW computes the exact global point weight through the
// single-row accumulator bank and stores it on the state: the reduction
// is over integer limbs, so the value (and everything derived from it —
// targets, the balance scale) is independent of the rank layout. Used
// by every warm run and by cold runs under cfg.Deterministic.
func (st *state) exactTotalW() float64 {
	st.exactTot.Reset()
	for _, w := range st.W {
		st.exactTot.Add(0, w)
	}
	off, seg := st.exactTot.Wire()
	lo, ln := mpi.AllreduceSumSparse(st.c, exact.WireLen, off, seg, st.exactTot.Backing())
	st.exactTot.SetWindow(lo, ln)
	st.totalW = st.exactTot.Float64(0)
	return st.totalW
}
