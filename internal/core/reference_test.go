package core

import (
	"math"

	"geographer/internal/geom"
)

// refDist2 is the reference pipelines' point-center distance: Point
// construction from the PC/CC columns plus geom.Dist2 at spatial
// dimensions (the arithmetic the kernels' 2D/3D switch arms mirror; at
// d = 1 its left-to-right walk is the kernels' column walk), a
// left-to-right column walk — the same association order — beyond
// geom.MaxDim.
func refDist2(kr *geom.AssignKernel, dim int, i, bc int32) float64 {
	if dim <= geom.MaxDim {
		var x, c geom.Point
		for d, col := range kr.CC {
			x[d], c[d] = kr.PC[d][i], col[bc]
		}
		return geom.Dist2(x, c, dim)
	}
	s := 0.0
	for d, col := range kr.CC {
		t := kr.PC[d][i] - col[bc]
		s += t * t
	}
	return s
}

// referenceAssign is the retained scalar reference of the batch
// assignment kernels: a straight-line, per-point transcription of
// Algorithm 1's inner loop in squared effective-distance space. It is
// the executable specification the SoA kernels in internal/geom are
// differentially tested against (kernel_equiv_test.go demands
// bit-identical A/ub/lb/lbk), and it is deliberately written with the
// same arithmetic shapes — dist²·invInf², bounds compared before
// squaring is applied to possibly-negative Elkan entries — so that any
// divergence is a kernel bug, not a rounding artifact.
func referenceAssign(dim int, kr *geom.AssignKernel, idx []int32, hamerly, elkan bool) {
	if elkan {
		referenceElkan(dim, kr, idx)
		return
	}
	invMaxInf2 := kr.RawLbInv * kr.RawLbInv
	for _, i := range idx {
		if hamerly && kr.A[i] >= 0 {
			// Apply any pending influence rescale before the skip test,
			// and persist the corrected bounds when the point is skipped
			// (a recomputation overwrites them anyway).
			u, l := kr.Ub[i], kr.Lb[i]
			if kr.UbScale != nil {
				u *= kr.UbScale[kr.A[i]]
				l *= kr.LbScale
			}
			if u < l {
				if kr.UbScale != nil {
					kr.Ub[i] = u
					kr.Lb[i] = l
				}
				kr.Skips++
				kr.LocalW[kr.A[i]] += kr.W[i]
				continue
			}
		}
		best2, second2 := math.Inf(1), math.Inf(1)
		bestC := int32(0)
		eval := func(bc int32) {
			d2 := refDist2(kr, dim, i, bc) * kr.InvInf2[bc]
			kr.DistCalcs++
			if d2 < best2 {
				second2 = best2
				best2 = d2
				bestC = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
		an := kr.A[i]
		if an < 0 && kr.Anchor != nil {
			// An unassigned point walks from its anchor; core attaches
			// anchors only where the kernel reads them (d = 2, 3, cold).
			an = int32(kr.Anchor[i])
		}
		if hamerly && an >= 0 && kr.CCOrder != nil {
			// Anchored rescan: the current center (or the anchor) is the
			// incumbent, then its neighbours by ascending center-center
			// distance until the triangle bound — raw distance to every
			// later center ≥ CCDist − rawdist(p,c_an), effective ≥ that
			// over the largest influence — clears the second best.
			rawA2 := refDist2(kr, dim, i, an)
			kr.DistCalcs++
			rub := math.Sqrt(rawA2)
			best2, bestC = rawA2*kr.InvInf2[an], an
			row := int(an) * kr.K
			for j := 1; j < kr.K; j++ {
				if lr := kr.CCDist[row+j] - rub; lr > 0 && lr*lr*invMaxInf2 > second2 {
					kr.Breaks++
					break
				}
				eval(kr.CCOrder[row+j])
			}
		} else {
			for _, bc := range kr.Order {
				if kr.Prune && kr.DistBB2[bc] > second2 {
					kr.Breaks++
					break
				}
				eval(bc)
			}
		}
		kr.A[i] = bestC
		kr.Ub[i] = math.Sqrt(best2)
		kr.Lb[i] = math.Sqrt(second2)
		kr.LocalW[bestC] += kr.W[i]
	}
}

// referenceAssignRaw is the scalar reference of RunBounded with the raw
// shadow column attached (the warm incremental Hamerly pass), written
// apart from referenceAssign on purpose so that a mistake shared with the
// one kernel body cannot pass: skip against max(effective Lb, raw floor
// RawLb·RawLbInv) with the winner stored back, a center-anchored scan
// with the triangle-inequality break for assigned points (full scan in
// pruning order otherwise, never the box break), and the raw
// second-minimum tracked into RawLb. Like the kernel it leaves LocalW
// alone: the warm path reads its block weights from the exact banks.
func referenceAssignRaw(dim int, kr *geom.AssignKernel, idx []int32) {
	invMaxInf2 := kr.RawLbInv * kr.RawLbInv
	for _, i := range idx {
		cur := kr.A[i]
		if cur >= 0 {
			u, l := kr.Ub[i], kr.Lb[i]
			if kr.UbScale != nil {
				u *= kr.UbScale[cur]
				l *= kr.LbScale
			}
			if lr := kr.RawLb[i] * kr.RawLbInv; lr > l {
				l = lr
			}
			if u < l {
				kr.Ub[i] = u
				kr.Lb[i] = l
				kr.Skips++
				continue
			}
		}
		best2, second2 := math.Inf(1), math.Inf(1)
		r1, r2 := math.Inf(1), math.Inf(1)
		r1id := int32(-1)
		bestC := int32(0)
		rawFloor2 := math.Inf(1)
		track := func(bc int32) {
			raw2 := refDist2(kr, dim, i, bc)
			d2 := raw2 * kr.InvInf2[bc]
			kr.DistCalcs++
			if raw2 < r1 {
				r2 = r1
				r1 = raw2
				r1id = bc
			} else if raw2 < r2 {
				r2 = raw2
			}
			if d2 < best2 {
				second2 = best2
				best2 = d2
				bestC = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
		if cur >= 0 {
			row := int(cur) * kr.K
			rawA2 := refDist2(kr, dim, i, cur)
			kr.DistCalcs++
			rub := math.Sqrt(rawA2)
			r1, r1id = rawA2, cur
			best2 = rawA2 * kr.InvInf2[cur]
			bestC = cur
			for j := 1; j < kr.K; j++ {
				lr := kr.CCDist[row+j] - rub
				if lr > 0 && lr*lr*invMaxInf2 > second2 {
					kr.Breaks++
					rawFloor2 = lr * lr
					break
				}
				track(kr.CCOrder[row+j])
			}
		} else {
			for _, bc := range kr.Order {
				track(bc)
			}
		}
		kr.A[i] = bestC
		kr.Ub[i] = math.Sqrt(best2)
		kr.Lb[i] = math.Sqrt(second2)
		rl := r1
		if r1id == bestC {
			rl = r2
		}
		if rawFloor2 < rl {
			rl = rawFloor2
		}
		kr.RawLb[i] = math.Sqrt(rl)
	}
}

func referenceElkan(dim int, kr *geom.AssignKernel, idx []int32) {
	for _, i := range idx {
		best2 := math.Inf(1)
		bestC := int32(0)
		row := int(i) * kr.K
		if a := kr.A[i]; a >= 0 {
			raw2 := refDist2(kr, dim, i, a)
			kr.DistCalcs++
			kr.Lbk[row+int(a)] = math.Sqrt(raw2)
			best2 = raw2 * kr.InvInf2[a]
			bestC = a
		}
		for _, bc := range kr.Order {
			if bc == kr.A[i] {
				continue
			}
			if kr.Prune && kr.DistBB2[bc] > best2 {
				kr.Breaks++
				break
			}
			if l := kr.Lbk[row+int(bc)]; l > 0 && l*l*kr.InvInf2[bc] >= best2 {
				kr.Skips++
				continue
			}
			raw2 := refDist2(kr, dim, i, bc)
			kr.DistCalcs++
			kr.Lbk[row+int(bc)] = math.Sqrt(raw2)
			if d2 := raw2 * kr.InvInf2[bc]; d2 < best2 {
				best2 = d2
				bestC = bc
			}
		}
		kr.A[i] = bestC
		kr.Ub[i] = math.Sqrt(best2)
		kr.LocalW[bestC] += kr.W[i]
	}
}
