package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The shape switches of a straight-line-vs-generic case, one bit each.
const (
	shapeHamerly = 1 << iota // Hamerly skips (else the plain pass)
	shapeTables              // the center-center tables of the anchored walk
	shapePrune               // the box break of box-ordered scans
	shapePending             // a pending influence rescale
	shapeAnchors             // curve anchors for the unassigned points
	shapeAll     = 1<<iota - 1
)

// shapedKernel is fuzzKernel (four in ten points unassigned, the rest
// assigned at random under random bounds) dressed in one shape: the
// center-center tables — rows by ascending center distance, deflated as
// core builds them — with the conservative 1/max-influence, a pending
// rescale, an anchor column. Returns the kernel, its index list and
// whether the pass is a Hamerly one.
func shapedKernel(dim, n, k int, seed int64, inj0, inj1 float64, shape int) (*AssignKernel, []int32, bool) {
	kr, idx := fuzzKernel(dim, n, k, seed, inj0, inj1, false)
	rng := rand.New(rand.NewSource(seed + 77))
	kr.Prune = shape&shapePrune != 0
	if shape&shapeTables != 0 {
		minInv2 := math.Inf(1)
		for _, v := range kr.InvInf2 {
			minInv2 = min(minInv2, v)
		}
		kr.RawLbInv = math.Sqrt(minInv2) * (1 - 4e-16)
		kr.CCOrder = make([]int32, k*k)
		kr.CCDist = make([]float64, k*k)
		a, b := make([]float64, dim), make([]float64, dim)
		dist := make([]float64, k)
		ctr := ColsOf(kr.CC)
		for c := 0; c < k; c++ {
			ctr.AtVec(c, a)
			row := kr.CCOrder[c*k : c*k+k]
			for j := range row {
				ctr.AtVec(j, b)
				dist[j] = DistVec(a, b)
				row[j] = int32(j)
			}
			row[0], row[c] = row[c], row[0]
			rest := row[1:]
			slices.SortStableFunc(rest, func(x, y int32) int {
				if dist[x] != dist[y] {
					if dist[x] < dist[y] {
						return -1
					}
					return 1
				}
				return int(x - y)
			})
			for j, id := range row {
				kr.CCDist[c*k+j] = dist[id] * (1 - 4e-16)
			}
		}
	}
	if shape&shapePending != 0 {
		kr.UbScale = make([]float64, k)
		kr.LbScale = math.Inf(1)
		for b := range kr.UbScale {
			kr.UbScale[b] = 0.9 + 0.2*rng.Float64()
			kr.LbScale = min(kr.LbScale, kr.UbScale[b])
		}
	}
	if shape&shapeAnchors != 0 {
		kr.Anchor = make([]uint64, n)
		for i := range kr.Anchor {
			kr.Anchor[i] = uint64(rng.Intn(k))
		}
	}
	return kr, idx, shape&shapeHamerly != 0
}

// twinKernel copies kr's per-point state and gives the copy its own
// weight accumulator and counters, so two bodies can run the same pass.
func twinKernel(kr *AssignKernel) *AssignKernel {
	tw := *kr
	tw.A = slices.Clone(kr.A)
	tw.Ub = slices.Clone(kr.Ub)
	tw.Lb = slices.Clone(kr.Lb)
	tw.LocalW = make([]float64, len(kr.LocalW))
	return &tw
}

// checkStraightLine runs one pass through the straight-line body of dim
// and through the generic body on a twin, and demands the same A, Ub, Lb,
// LocalW and skips, bit for bit (any two NaNs count as equal), and the
// same distance and break counts unless an Anchor column is attached:
// only the straight-line body walks from it, which moves those two
// counters and nothing else. That holds where the distances are numbers.
// A point whose every distance is NaN or +Inf (a hostile coordinate) has
// no best center — no comparison ever succeeds — and keeps whichever it
// examined first, the anchor in one body and the box order's head in the
// other; with an anchor column such points, which the generic body
// leaves at Ub = +Inf or NaN, are exempt, and LocalW with them.
func checkStraightLine(t *testing.T, label string, dim int, kr *AssignKernel, idx []int32, hamerly bool) {
	t.Helper()
	gen := twinKernel(kr)
	gen.runBounded(dim, idx, hamerly)
	kr.runCold(dim, idx, hamerly)
	exempt := func(i int) bool { return kr.Anchor != nil && !(gen.Ub[i] < math.Inf(1)) }
	anyExempt := false
	for i := range kr.A {
		if exempt(i) {
			anyExempt = true
			continue
		}
		if kr.A[i] != gen.A[i] {
			t.Fatalf("%s: A[%d] = %d straight-line, %d generic", label, i, kr.A[i], gen.A[i])
		}
		for _, c := range []struct {
			name          string
			straight, gen float64
		}{{"Ub", kr.Ub[i], gen.Ub[i]}, {"Lb", kr.Lb[i], gen.Lb[i]}} {
			if !sameBits(c.straight, c.gen) {
				t.Fatalf("%s: %s[%d] = %x straight-line, %x generic", label, c.name, i, c.straight, c.gen)
			}
		}
	}
	for b := range kr.LocalW {
		if !anyExempt && !sameBits(kr.LocalW[b], gen.LocalW[b]) {
			t.Fatalf("%s: LocalW[%d] = %x straight-line, %x generic", label, b, kr.LocalW[b], gen.LocalW[b])
		}
	}
	if kr.Skips != gen.Skips || kr.Anchor == nil && (kr.DistCalcs != gen.DistCalcs || kr.Breaks != gen.Breaks) {
		t.Fatalf("%s: counters (%d,%d,%d) straight-line, (%d,%d,%d) generic", label,
			kr.DistCalcs, kr.Skips, kr.Breaks, gen.DistCalcs, gen.Skips, gen.Breaks)
	}
}

// TestStraightLineMatchesGeneric pins the cold pass's straight-line body
// (d = 2 and 3) to the generic body it stands in for, over every shape:
// Hamerly and plain, tables on and off, box break on and off, a pending
// rescale or none, unassigned points scanning in box order or walking
// from an anchor, at k = 1, 2, 7 and 32.
func TestStraightLineMatchesGeneric(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, k := range []int{1, 2, 7, 32} {
			t.Run(fmt.Sprintf("dim=%d/k=%d", dim, k), func(t *testing.T) {
				for shape := 0; shape <= shapeAll; shape++ {
					for seed := int64(0); seed < 3; seed++ {
						kr, idx, hamerly := shapedKernel(dim, 600, k, 31*seed+int64(shape), 0.5, 0.5, shape)
						checkStraightLine(t, fmt.Sprintf("shape %05b seed %d", shape, seed), dim, kr, idx, hamerly)
					}
				}
			})
		}
	}
}

// FuzzStraightLineMatchesGeneric is the same comparison under hostile
// points — NaN/±Inf coordinates, a coincident pair, k > n — and any shape.
func FuzzStraightLineMatchesGeneric(f *testing.F) {
	f.Add(int64(1), 0.5, 0.5, uint8(40), uint8(7), false, uint8(shapeAll))
	f.Add(int64(2), math.NaN(), math.Inf(1), uint8(3), uint8(9), true, uint8(shapeHamerly|shapeTables|shapeAnchors))  // k > n
	f.Add(int64(2), math.NaN(), math.Inf(1), uint8(3), uint8(9), false, uint8(shapeHamerly|shapeTables|shapeAnchors)) // a NaN point walks from its anchor
	f.Add(int64(3), math.Inf(-1), 1e300, uint8(90), uint8(31), true, uint8(shapeHamerly|shapeTables|shapePending))
	f.Add(int64(4), 0.0, 0.0, uint8(1), uint8(0), false, uint8(shapeTables|shapeAnchors)) // plain pass: tables unread
	f.Add(int64(5), 2.0, 1.0, uint8(150), uint8(1), false, uint8(shapeHamerly|shapePrune))
	f.Fuzz(func(t *testing.T, seed int64, inj0, inj1 float64, nRaw, kRaw uint8, threeD bool, shapeRaw uint8) {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%40 + 1
		dim := 2
		if threeD {
			dim = 3
		}
		shape := int(shapeRaw) & shapeAll
		kr, idx, hamerly := shapedKernel(dim, n, k, seed, inj0, inj1, shape)
		checkStraightLine(t, fmt.Sprintf("dim=%d n=%d k=%d shape %05b", dim, n, k, shape), dim, kr, idx, hamerly)
	})
}
