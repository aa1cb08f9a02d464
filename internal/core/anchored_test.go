package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geographer/internal/geom"
)

// validBoundsScenario is a kernelScenario whose prior state is *sound*
// rather than random: every point is assigned — three in four to their true
// effective argmin, the rest to a random block, the stale assignment a moved
// center leaves behind — with an upper bound at or above the effective
// distance to that block and a lower bound at or below the smallest
// effective distance to any other, each loosened by a random share, up to
// loosen, of the gap between the two (so the share of points whose bounds
// still prove them is a function of loosen, not of how distances
// concentrate at the dimension). Influences spread over [0.5, 2]
// (kernelScenario). A pending
// rescale (odd seeds) is divided out of the stored bounds, so what the pass
// tests after applying it is sound as well. Returns the brute-force
// effective distances, row-major n×k.
func validBoundsScenario(t testing.TB, dim, n, k int, prune bool, loosen float64, seed int64) (*state, []int32, []float64) {
	st, sample := kernelScenario(t, dim, n, k, BoundsHamerly, prune, seed)
	rng := rand.New(rand.NewSource(seed + 5000))
	eff := make([]float64, n*k)
	p, c := make([]float64, dim), make([]float64, dim)
	for i := 0; i < n; i++ {
		st.X.AtVec(i, p)
		best := 0
		for b := 0; b < k; b++ {
			st.centerCols.AtVec(b, c)
			s := 0.0
			for d := range p {
				s += (p[d] - c[d]) * (p[d] - c[d])
			}
			eff[i*k+b] = math.Sqrt(s) / st.influence[b]
			if eff[i*k+b] < eff[i*k+best] {
				best = b
			}
		}
		a := best
		if rng.Intn(4) == 0 {
			a = rng.Intn(k)
		}
		other := math.Inf(1)
		for b := 0; b < k; b++ {
			if b != a && eff[i*k+b] < other {
				other = eff[i*k+b]
			}
		}
		st.A[i] = int32(a)
		gap := math.Abs(other - eff[i*k+a])
		st.ub[i] = eff[i*k+a] + loosen*rng.Float64()*gap
		st.lb[i] = math.Max(0, other-loosen*rng.Float64()*gap)
		if st.pendScaled {
			st.ub[i] /= st.pendUbRatio[a]
			st.lb[i] /= st.pendLbRatio
		}
	}
	return st, sample, eff
}

// checkAnchoredEqualsFullScan runs one scenario through the production
// kernels twice — box-ordered scans only, then with the center-center
// tables attached so every rescan of an assigned point is anchored — and
// demands the same assignments, bounds and skips from both, and from the
// anchored arm the brute-force answer: every point in its true argmin block
// (sound prior bounds only let a point skip when it is there already) under
// sound bounds, which for a rescanned point are the exact distance and the
// exact runner-up. A share of the points, up to unassigned, starts without
// a block; the anchored arm hands them random curve anchors to walk from.
// Returns the two arms' distance evaluations and the skips.
func checkAnchoredEqualsFullScan(t *testing.T, dim, n, k int, prune bool, loosen, unassigned float64, seed int64) (plainDC, anchoredDC, skips int64) {
	t.Helper()
	st, sample, eff := validBoundsScenario(t, dim, n, k, prune, loosen, seed)
	if unassigned > 0 {
		rng := rand.New(rand.NewSource(seed + 6000))
		for i := range st.A {
			if rng.Float64() < unassigned {
				st.A[i], st.ub[i], st.lb[i] = -1, math.Inf(1), 0
			}
		}
	}
	pend := st.pendScaled
	start := captureRun(st, 0, 0, 0)
	plain := runKernels(st, sample, start, pend, 1)
	st.scenarioCCTables()
	if unassigned > 0 {
		st.scenarioCurveBlocks(seed)
	}
	anchored := runKernels(st, sample, start, pend, 3)

	label := fmt.Sprintf("dim=%d prune=%v seed=%d", dim, prune, seed)
	for i := range plain.a {
		if anchored.a[i] != plain.a[i] {
			t.Fatalf("%s: A[%d] = %d anchored, %d plain", label, i, anchored.a[i], plain.a[i])
		}
	}
	if i := bitsEqual(anchored.ub, plain.ub); i >= 0 {
		t.Fatalf("%s: ub[%d] = %x anchored, %x plain", label, i, anchored.ub[i], plain.ub[i])
	}
	if i := bitsEqual(anchored.lb, plain.lb); i >= 0 {
		t.Fatalf("%s: lb[%d] = %x anchored, %x plain", label, i, anchored.lb[i], plain.lb[i])
	}
	if i := bitsEqual(anchored.localW, plain.localW); i >= 0 {
		t.Fatalf("%s: localW[%d] = %x anchored, %x plain", label, i, anchored.localW[i], plain.localW[i])
	}
	if anchored.sk != plain.sk {
		t.Fatalf("%s: %d skips anchored, %d plain", label, anchored.sk, plain.sk)
	}

	const rel = 1e-12 // the kernels work in squared space; eff took one more rounding
	for i := 0; i < n; i++ {
		row := eff[i*k : (i+1)*k]
		best, second := 0, -1
		for b := 1; b < k; b++ {
			switch {
			case row[b] < row[best]:
				best, second = b, best
			case second < 0 || row[b] < row[second]:
				second = b
			}
		}
		a := int(anchored.a[i])
		if a != best {
			t.Fatalf("%s: point %d ends in block %d, true argmin %d", label, i, a, best)
		}
		if ub := anchored.ub[i]; ub < row[a]*(1-rel) {
			t.Fatalf("%s: ub[%d] = %g below the distance %g to its block", label, i, ub, row[a])
		}
		if lb := anchored.lb[i]; lb > row[second]*(1+rel) {
			t.Fatalf("%s: lb[%d] = %g above the nearest other block at %g", label, i, lb, row[second])
		}
		u, l := start.ub[i], start.lb[i]
		if pend && start.a[i] >= 0 {
			u *= st.pendUbRatio[start.a[i]]
			l *= st.pendLbRatio
		}
		if start.a[i] < 0 || !(u < l) {
			// Rescanned: the block is the argmin and both bounds are exact.
			if a != best || math.Abs(anchored.ub[i]-row[best]) > rel*row[best] ||
				math.Abs(anchored.lb[i]-row[second]) > rel*row[second] {
				t.Fatalf("%s: rescanned point %d: (A, ub, lb) = (%d, %g, %g), want (%d, %g, %g)",
					label, i, a, anchored.ub[i], anchored.lb[i], best, row[best], row[second])
			}
		}
	}
	return plain.dc, anchored.dc, plain.sk
}

// TestAnchoredWalkEqualsFullScan pins the anchored rescan semantically:
// differential tests against the scalar reference would pass if kernel and
// reference shared a wrong break rule, this one compares the truncated
// walk with the scan that visits every center and with brute force. The
// scenarios keep the rescan share between 10 and 90 %, so both the skip
// and the walk carry weight; at d = 2 and 3 a fifth starts a quarter of
// its points unassigned, walking from curve anchors.
func TestAnchoredWalkEqualsFullScan(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 16} {
		for _, prune := range []bool{false, true} {
			t.Run(fmt.Sprintf("dim=%d/prune=%v", dim, prune), func(t *testing.T) {
				n, ks := latticeN(dim), []int{24}
				if dim > geom.MaxDim {
					// The blocked arm: a single short block, a short last
					// block, whole blocks.
					ks = []int{7, 17, 24}
				}
				for _, k := range ks {
					seeds := int64(4)
					if dim == 2 || dim == 3 {
						seeds = 5
					}
					for seed := int64(0); seed < seeds; seed++ {
						loosen := []float64{0.5, 0.9, 1.2, 1.6, 0.5}[seed]
						unassigned := []float64{0, 0, 0, 0, 0.25}[seed]
						plainDC, anchoredDC, skips := checkAnchoredEqualsFullScan(t, dim, n, k, prune, loosen, unassigned, 900+seed)
						rescans := int64(n) - skips
						if share := float64(rescans) / float64(n); share < 0.1 || share > 0.9 {
							t.Fatalf("k=%d seed %d: %.0f %% of the points rescan; the scenario should keep it in 10–90 %%", k, seed, 100*share)
						}
						if !prune {
							// With the box break off the plain arm pays exactly
							// k per rescan; the walk may never pay more.
							if plainDC != rescans*int64(k) {
								t.Fatalf("k=%d seed %d: plain arm evaluated %d, want %d·%d", k, seed, plainDC, rescans, k)
							}
							if anchoredDC > plainDC {
								t.Fatalf("k=%d seed %d: anchored arm evaluated %d > plain %d", k, seed, anchoredDC, plainDC)
							}
						}
					}
				}
			})
		}
	}
}

// FuzzAnchoredWalkEqualsFullScan is the same property over fuzzed shapes:
// any dimension class, k from 2 up, any loosening of the prior bounds, any
// share of unassigned points walking from curve anchors.
func FuzzAnchoredWalkEqualsFullScan(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(9), uint8(1), uint8(40), uint8(0), true)
	f.Add(int64(2), uint8(40), uint8(30), uint8(2), uint8(90), uint8(0), false)
	f.Add(int64(3), uint8(255), uint8(2), uint8(4), uint8(0), uint8(0), true)
	f.Add(int64(4), uint8(200), uint8(30), uint8(1), uint8(40), uint8(64), true)   // anchored-unassigned, d = 2
	f.Add(int64(5), uint8(120), uint8(13), uint8(2), uint8(70), uint8(200), false) // d = 3, most points unassigned
	f.Add(int64(6), uint8(90), uint8(17), uint8(1), uint8(20), uint8(255), true)   // d = 2, every point unassigned
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, dimRaw, loosenRaw, unassignedRaw uint8, prune bool) {
		n := int(nRaw) + 2
		k := int(kRaw)%40 + 2
		dims := []int{1, 2, 3, 4, 8, 16}
		dim := dims[int(dimRaw)%len(dims)]
		loosen := float64(loosenRaw) / 64
		unassigned := float64(unassignedRaw) / 255
		checkAnchoredEqualsFullScan(t, dim, n, k, prune, loosen, unassigned, seed)
	})
}
