// Batch assignment kernels in squared effective-distance space.
//
// The balanced k-means assignment loop (paper Algorithm 1) compares
// effective distances dist(p,c)/influence(c) across centers. Because x²
// is strictly monotone on [0,∞), every comparison — argmin selection,
// second-best tracking, bound skips and bounding-box pruning — can be
// carried out on dist²(p,c)·invInfluence²(c) instead, which removes the
// math.Sqrt and the division from the innermost O(n·k) loop. Square
// roots survive only at bound-maintenance boundaries (one or two per
// *point* when its upper/lower bounds are rewritten, and one per actual
// distance evaluation in Elkan mode where the stored per-center bounds
// live in raw-distance space). See DESIGN.md, "Performance notes", for
// the invariants the callers rely on.
//
// The kernels read points from a structure-of-arrays Cols store, which
// holds exactly its Dim columns. RunBounded is the Hamerly/plain pass,
// cold and warm (the raw shadow bound an optional column of it), and
// RunElkan the Elkan pass. The bounds logic of each is written once, in a
// generic body that serves every dimension. RunElkan, whose per-center
// bounds skip most centers, walks the column lists at every dimension:
// each evaluation is one colsDist2 call, as is the single evaluation of
// a Hamerly rescan's anchor. The Hamerly body's only dimension-dependent
// code is the squared-distance expression, chosen per evaluation by an
// in-body switch on dim between the unrolled 2D expression over the
// hoisted X/Y columns, the unrolled 3D one over X/Y/Z, and the walk at
// every other dimension, d = 1 included; it hoists only the axes the
// point has. On the walk it gathers the rescanned point once
// (gatherPoint) and evaluates the scan order blockLen centers at a time
// (blockDist2), the switch arm reading its distance from the block.
// Every one of them accumulates each center's sum left to right from
// zero, so wherever two apply they agree bit for bit, and every one is
// pinned to the scalar reference path of internal/core.
//
// The cold pass — RunBounded without the raw column — is the one
// exception, at d = 2 and d = 3 only: there it runs a straight-line body
// (runCold), a tight skip loop that hands every rescan to one out-of-line
// call per dimension (rescan2, rescan3) over the unrolled distance
// expression, with no raw-scan state and no point scratch. The
// straight-line body stores what the generic body stores, counters
// included, bit for bit (TestStraightLineMatchesGeneric and its fuzz
// target) — except that only it reads the Anchor column,
// which moves the distance and break counts. DESIGN.md
// ("Generic-dimension invariants") records which body serves which pass
// and what the straight-line body buys. Each AssignKernel value carries
// its own weight accumulator, point scratch and counters so that several
// kernels can run concurrently over disjoint index shards of the same
// point set.
package geom

import "math"

// The machine-independent chunk grid shared by every batch kernel that
// splits per-point work for intra-rank parallelism (the assignment
// kernels of internal/core, the key kernel of internal/sfc). Chunk
// boundaries are a function of n alone — never of the worker count or
// the host — so per-chunk accumulators always merge in the same
// floating-point order and output stays bit-identical across machines
// and worker settings.
const (
	// MinChunkPoints is the smallest per-chunk slice worth its own
	// accumulator: below this, setup/merge overhead dominates.
	MinChunkPoints = 512
	// MaxKernelChunks caps the fan-out: beyond this, merge overhead and
	// goroutine churn outweigh the per-chunk speedup at the sample sizes
	// the balance rounds run on.
	MaxKernelChunks = 16
)

// ChunkGrid returns the chunk count of the shared grid for n points.
func ChunkGrid(n int) int {
	c := n / MinChunkPoints
	if c < 1 {
		c = 1
	}
	if c > MaxKernelChunks {
		c = MaxKernelChunks
	}
	return c
}

// Cols is a structure-of-arrays point store: one flat []float64 column
// per axis, the layout the batch kernels operate on. Col holds the Dim
// columns and nothing else; X, Y and Z alias the first three of them and
// stay nil where the dimension lacks the axis.
type Cols struct {
	Dim     int
	X, Y, Z []float64
	Col     [][]float64
}

// MakeCols returns a Cols holding n zero points in one backing allocation.
func MakeCols(dim, n int) Cols {
	buf := make([]float64, dim*n)
	col := make([][]float64, dim)
	for d := range col {
		col[d] = buf[d*n : (d+1)*n : (d+1)*n]
	}
	return ColsOf(col)
}

// ColsOf returns the Cols view of len(col) ≥ 1 equal-length coordinate
// columns, sharing them.
func ColsOf(col [][]float64) Cols {
	c := Cols{Dim: len(col), Col: col, X: col[0]}
	if len(col) > 1 {
		c.Y = col[1]
	}
	if len(col) > 2 {
		c.Z = col[2]
	}
	return c
}

// Len returns the number of points.
func (c *Cols) Len() int { return len(c.X) }

// AtVec copies point i into out (len(out) ≥ Dim), any dimension.
func (c *Cols) AtVec(i int, out []float64) {
	for d, col := range c.Col {
		out[d] = col[i]
	}
}

// SetVec overwrites point i from v (len(v) ≥ Dim), any dimension.
func (c *Cols) SetVec(i int, v []float64) {
	for d, col := range c.Col {
		col[i] = v[d]
	}
}

// Dist2Batch writes the squared Euclidean distance from every point of
// the columns to the query point q into out (len(out) = column length),
// at d = 2 (px, py) or d = 3 (px, py, pz); Dist2BatchND serves every
// dimension. It is the unconditional building block underneath the
// assignment kernels and the baseline for their microbenchmarks.
func Dist2Batch(dim int, px, py, pz []float64, q Point, out []float64) {
	if dim == 3 {
		qx, qy, qz := q[0], q[1], q[2]
		for i := range out {
			dx := px[i] - qx
			dy := py[i] - qy
			dz := pz[i] - qz
			out[i] = dx*dx + dy*dy + dz*dz
		}
		return
	}
	qx, qy := q[0], q[1]
	for i := range out {
		dx := px[i] - qx
		dy := py[i] - qy
		out[i] = dx*dx + dy*dy
	}
}

// SampleBoxW extends the flat box bmin/bmax (len = dimension) over the
// points [lo, hi) of the pc columns and returns sumW plus their weights,
// added left to right — the fused first pass of a balance round. Both
// folds are sequential, so folding [0, m) and then [m, n) into the same
// box and running sum gives the bits of one fold over [0, n): a growing
// sample prefix only ever folds in the points it gained. Each axis runs
// as its own loop with the running min/max in registers; NaN coordinates
// compare false and leave the box as it was. Allocation-free.
func SampleBoxW(pc [][]float64, w []float64, lo, hi int, bmin, bmax []float64, sumW float64) float64 {
	for d, col := range pc {
		mn, mx := bmin[d], bmax[d]
		for _, x := range col[lo:hi] {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		bmin[d], bmax[d] = mn, mx
	}
	for _, v := range w[lo:hi] {
		sumW += v
	}
	return sumW
}

// Dist2BatchND is Dist2Batch for any dimension: the squared Euclidean
// distance from every point of the pc columns to the query vector q
// (len(q) = dimension) is written into out. Axis differences accumulate
// left to right, the same order the unrolled expressions use, so at d ≤ 3
// the results are bit-identical to Dist2Batch.
func Dist2BatchND(pc [][]float64, q []float64, out []float64) {
	for i := range out {
		s := 0.0
		for d := range q {
			t := pc[d][i] - q[d]
			s += t * t
		}
		out[i] = s
	}
}

// AssignKernel bundles the inputs, in/out state and accumulators of one
// batch assignment pass. The point and center columns, pruning tables
// and per-point slices (A, Ub, Lb, Lbk) may be shared between several
// kernel values running over disjoint index shards; LocalW and the
// counters are private per kernel so shards need no synchronization.
type AssignKernel struct {
	// Points: SoA columns and weights, indexed by the sample indices.
	PX, PY, PZ []float64
	W          []float64

	// Centers: SoA columns (length K) and squared reciprocal influences.
	CX, CY, CZ []float64
	InvInf2    []float64

	// The same points and centers as column lists: PC holds the d point
	// columns, CC the d center columns (Cols.Col). At d = 1 and beyond
	// MaxDim the passes walk these; at d = 2 and 3 they alias the
	// PX../CX.. columns the unrolled distance expressions read, and are
	// not touched. An axis the dimension lacks may be nil: no pass reads
	// PY/CY below d = 2 or PZ/CZ below d = 3.
	PC, CC [][]float64

	// Pruning tables: centers in ascending order of DistBB2, the squared
	// effective distance from the center to the local bounding box.
	Order   []int32
	DistBB2 []float64
	Prune   bool

	K int

	// Per-point state (full-length; a kernel touches only its indices).
	// Ub and Lb hold *linear* effective distances — their maintenance
	// between rounds is additive and does not commute with squaring —
	// so the kernels take one sqrt per rewritten point on the way out.
	A      []int32
	Ub, Lb []float64
	Lbk    []float64 // Elkan only: raw-distance lower bounds, row stride K

	// Pending influence rescale, fused into the bounded pass: when
	// UbScale is non-nil, a visited point's bounds are corrected by
	// Ub·UbScale[A[i]] and Lb·LbScale before the skip test, and the
	// corrected (or freshly recomputed) values are stored back. The
	// caller owns the once-per-point discipline: every pending ratio
	// must be consumed by exactly one pass over the sample.
	UbScale []float64
	LbScale float64

	// Raw-space shadow lower bound, an optional column of RunBounded that
	// the warm incremental path of internal/core attaches: RawLb[i]
	// lower-bounds the *influence-free* distance from point i to every
	// center other than A[i]. Influence changes cannot touch it, so it
	// survives the balance loop's compounding Lb rescales and converts
	// losslessly across runs. RunBounded maintains it on every recompute
	// by tracking the two smallest raw distances of the scan, and uses
	// RawLb[i]·RawLbInv (RawLbInv = a conservatively rounded
	// 1/max-influence) as a second skip floor next to the effective Lb.
	// A non-nil RawLb requires hamerly and the CCOrder/CCDist tables.
	RawLb    []float64
	RawLbInv float64

	// Center-center pruning tables for the anchored rescans of the
	// Hamerly body (row-major K×K, centers fixed across the balance
	// rounds of one pass sequence; nil on a kernel that scans in box
	// order only — required when RawLb is attached, optional otherwise):
	// CCOrder[a·K+j] lists the centers in ascending raw distance from
	// center a, with CCOrder[a·K] = a itself, and CCDist[a·K+j] holds
	// the matching raw distances, pre-deflated by the caller so that
	// rounding keeps the triangle bound below its true value. A rescan
	// of a point still assigned to a walks row a and stops as soon as
	// (CCDist[a·K+j] − rawdist(p,c_a))²·RawLbInv² exceeds the current
	// second-best effective distance — every remaining center is then
	// provably unable to change best or second best, so the truncated
	// scan stores the same A/Ub/Lb a full scan would.
	CCOrder []int32
	CCDist  []float64

	// Anchor, an optional column of the cold Hamerly pass at d = 2 and 3
	// that carries the tables, read only by its straight-line body (the
	// generic body ignores it): an unassigned point i (A[i] < 0) has no
	// block to walk from, and starts the same anchored walk from center
	// Anchor[i] ∈ [0, K) instead of scanning in box order. Any center is a
	// sound anchor — the triangle break holds from every start — so the
	// walk stores the full scan's best and second best and only DistCalcs
	// and Breaks depend on the column. internal/core fills it with the
	// point's block along the space-filling curve on curve-seeded cold
	// runs, in the curve-key column its sort leaves behind, hence the
	// uint64. Nil: unassigned points scan in box order.
	Anchor []uint64

	// Accumulators, private per kernel value. LocalW receives every
	// visited point's weight under its (new or kept) block, except in a
	// RunBounded pass with RawLb attached: that column rides only the warm
	// path, whose block weights come from the exact banks (core's
	// exactBlockWeights), so a float partial there is read by nobody.
	LocalW []float64

	// Q is scratch for the Hamerly body on the column walk: the rescanned
	// point's coordinates, gathered once per rescan. Private per kernel
	// like LocalW; a pass grows it when it is shorter than the dimension,
	// so a caller that reuses kernel values should carry it across calls.
	Q []float64

	// DistCalcs counts the centers the scans examined. On the column walk
	// the Hamerly body evaluates blockLen scan positions at a time, so a
	// rescan that breaks mid-block has evaluated up to blockLen−1 more
	// centers than it counts.
	DistCalcs int64
	Skips     int64
	Breaks    int64
}

// colsDist2 returns the squared Euclidean distance between point i of
// the pc columns and center b of the cc columns, accumulated left to
// right from a zero start — the association order of the unrolled 2D/3D
// expressions, so wherever two arms of the kernels' dimension switch
// apply they agree bit for bit.
//
// It serves the evaluations that come one at a time on the walk —
// RunElkan's, and the anchor of a Hamerly rescan; the scans of the
// Hamerly body go through blockDist2.
//
// Deliberately not inlined: inside a kernel body the walk's back edge
// reloads the body's spilled loop state on every axis, and the 2D/3D
// arms next to it allocate worse. When it still carried every scan, a
// full BenchmarkAssignKernel pass was 30 % faster at d=16, 10 % at d=4
// and 3 % at d=2/3 with it out of line than inlined (min of 8 runs each).
//
//go:noinline
func colsDist2(pc, cc [][]float64, i, b int32) float64 {
	s := 0.0
	for d, col := range cc {
		t := pc[d][i] - col[b]
		s += t * t
	}
	return s
}

// blockLen is the number of scan positions one blockDist2 call covers.
const blockLen = 8

// gatherPoint copies point i of the pc columns into q: len(pc)
// independent loads, issued once per rescan instead of once per center.
// Out of line for colsDist2's reason (8 % at d=8 and d=16 when inlined).
//
//go:noinline
func gatherPoint(pc [][]float64, i int32, q []float64) {
	for d, col := range pc {
		q[d] = col[i]
	}
}

// blockDist2 writes the squared Euclidean distances from the gathered
// point q to the first min(len(ids), blockLen) centers of ids (non-empty)
// into out. The walk is axis-outer over blockLen independent
// accumulators, so the adds of different centers overlap, but each
// accumulator still sums its t*t left to right from zero: every slot is
// bit for bit what colsDist2 returns for that center — keep the s += t*t
// shape of both, so that a compiler which fuses multiply-adds fuses them
// alike. A short tail is padded with ids[0]; the padded slots are never
// read.
func blockDist2(q []float64, cc [][]float64, ids []int32, out *[blockLen]float64) {
	var b [blockLen]int32
	for n := copy(b[:], ids); n < blockLen; n++ {
		b[n] = b[0]
	}
	b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for d, col := range cc {
		x := q[d]
		t := x - col[b0]
		s0 += t * t
		t = x - col[b1]
		s1 += t * t
		t = x - col[b2]
		s2 += t * t
		t = x - col[b3]
		s3 += t * t
		t = x - col[b4]
		s4 += t * t
		t = x - col[b5]
		s5 += t * t
		t = x - col[b6]
		s6 += t * t
		t = x - col[b7]
		s7 += t * t
	}
	out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// hoist returns point i's coordinates on the axes the unrolled 2D and 3D
// arms read, and zero for every axis the dimension lacks: no other
// dimension reads them, and the absent columns are nil.
func hoist(dim int, px, py, pz []float64, i int32) (x, y, z float64) {
	switch dim {
	case 2:
		x, y = px[i], py[i]
	case 3:
		x, y, z = px[i], py[i], pz[i]
	}
	return
}

// rawScan is a rescan's state for the raw shadow column: the two smallest
// raw distances (r1 at center r1id, r2) and floor2, a squared floor under
// the centers never reached. The generic body reaches it through a
// pointer, which keeps it in memory: held in locals, which the compiler
// keeps in registers across the scan, it cost the cold pass, where it is
// dead, 4–9 % at d ≤ 3 (paired runs against the pass without it, measured
// before the cold pass at d = 2, 3 left the generic body).
type rawScan struct {
	r1, r2, floor2 float64
	r1id           int32
}

// RunBounded executes the Hamerly/plain assignment pass over idx: for
// each point, recompute the best and second-best effective center unless
// hamerly bound skipping (Ub < Lb) proves the assignment unchanged.
//
// A rescan truncates its scan by one of two rules, chosen per point. A
// Hamerly rescan on a kernel that carries the center-center tables
// (CCOrder non-nil, with CCDist and RawLbInv) is anchored when the point
// has a block, or — in the straight-line body only — an Anchor entry:
// that center first, then its CCOrder row in ascending center-center
// distance until the triangle inequality proves the tail irrelevant — a
// cost of the point's neighbours, not of K. Every other scan (unassigned
// points without an anchor, plain mode, no tables) runs in bounding-box
// order and breaks, when Prune is set, at
// the first center whose box distance exceeds the second best. Both rules
// leave best and second-best exactly as a full scan computes them (modulo
// exact-tie scan order; see DESIGN.md, "Anchored rescans").
//
// With the raw shadow column attached (RawLb non-nil) the body also
// floors the skip test at RawLb·RawLbInv, refreshes RawLb on every
// rescan, leaves LocalW alone (see the fields) and never takes the box
// break, which would leave the raw minimum over the unscanned tail
// unknown (DistBB2 lives in effective space); on the warm path, whose
// per-rank boxes span the domain, it never fires anyway.
//
// Without the raw column, d = 2 and d = 3 run the straight-line body;
// every other pass runs the generic body.
func (kr *AssignKernel) RunBounded(dim int, idx []int32, hamerly bool) {
	if kr.RawLb == nil && (dim == 2 || dim == 3) {
		kr.runCold(dim, idx, hamerly)
		return
	}
	kr.runBounded(dim, idx, hamerly)
}

// runBounded is RunBounded's generic body: every dimension, with or
// without the raw column.
func (kr *AssignKernel) runBounded(dim int, idx []int32, hamerly bool) {
	px, py, pz := kr.PX, kr.PY, kr.PZ
	cx, cy, cz := kr.CX, kr.CY, kr.CZ
	pc, cc := kr.PC, kr.CC
	if dim != 2 && dim != 3 && len(kr.Q) < dim {
		kr.Q = make([]float64, dim) // a kernel built without scratch
	}
	q := kr.Q
	var blk [blockLen]float64
	inv2 := kr.InvInf2
	k := kr.K
	order, dbb2 := kr.Order, kr.DistBB2
	ccOrder, ccDist := kr.CCOrder, kr.CCDist
	rawLb, rawLbInv := kr.RawLb, kr.RawLbInv
	raw := rawLb != nil
	boxBreak := kr.Prune && !raw
	invMaxInf2 := rawLbInv * rawLbInv
	walk := hamerly && ccOrder != nil
	w, a, ub, lb, localW := kr.W, kr.A, kr.Ub, kr.Lb, kr.LocalW
	ubScale, lbScale := kr.UbScale, kr.LbScale
	scaled := ubScale != nil
	var distCalcs, skips, breaks int64
	for _, i := range idx {
		cur := a[i]
		if hamerly && cur >= 0 {
			u, l := ub[i], lb[i]
			if scaled {
				u *= ubScale[cur]
				l *= lbScale
			}
			if raw {
				if lr := rawLb[i] * rawLbInv; lr > l {
					l = lr
				}
			}
			if u < l {
				if scaled || raw {
					ub[i] = u
					lb[i] = l
				}
				skips++
				if !raw {
					localW[cur] += w[i]
				}
				continue
			}
		}
		x, y, z := hoist(dim, px, py, pz, i)
		best2, second2 := math.Inf(1), math.Inf(1)
		best := int32(0)
		rs := &rawScan{r1: math.Inf(1), r2: math.Inf(1), r1id: -1, floor2: math.Inf(1)}

		// scan is the box order, or — anchored — the rest of the current
		// center's CCOrder row with its CCDist entries in ccd.
		scan := order
		var ccd []float64
		var rub float64
		anchored := walk && cur >= 0
		if anchored {
			var rawA2 float64
			switch {
			case dim == 2:
				dx, dy := x-cx[cur], y-cy[cur]
				rawA2 = dx*dx + dy*dy
			case dim == 3:
				dx, dy, dz := x-cx[cur], y-cy[cur], z-cz[cur]
				rawA2 = dx*dx + dy*dy + dz*dz
			default:
				rawA2 = colsDist2(pc, cc, i, cur)
			}
			distCalcs++
			rub = math.Sqrt(rawA2)
			rs.r1, rs.r1id = rawA2, cur
			best2 = rawA2 * inv2[cur]
			best = cur
			row := int(cur) * k
			scan, ccd = ccOrder[row+1:row+k], ccDist[row+1:row+k]
		}
		for j, bc := range scan {
			if anchored {
				// Triangle bound for every center from j on (the row is
				// ascending): rawdist ≥ CCDist − rawdist(p, c_cur), and an
				// effective distance is at least rawdist/max-influence.
				lr := ccd[j] - rub
				if lr > 0 && lr*lr*invMaxInf2 > second2 {
					breaks++
					rs.floor2 = lr * lr
					break
				}
			} else if boxBreak && dbb2[bc] > second2 {
				breaks++
				break
			}
			var raw2 float64
			switch {
			case dim == 2:
				dx, dy := x-cx[bc], y-cy[bc]
				raw2 = dx*dx + dy*dy
			case dim == 3:
				dx, dy, dz := x-cx[bc], y-cy[bc], z-cz[bc]
				raw2 = dx*dx + dy*dy + dz*dz
			default:
				if j&(blockLen-1) == 0 {
					if j == 0 {
						gatherPoint(pc, i, q)
					}
					blockDist2(q, cc, scan[j:], &blk)
				}
				raw2 = blk[j&(blockLen-1)]
			}
			d2 := raw2 * inv2[bc]
			distCalcs++
			if raw {
				if raw2 < rs.r1 {
					rs.r2 = rs.r1
					rs.r1 = raw2
					rs.r1id = bc
				} else if raw2 < rs.r2 {
					rs.r2 = raw2
				}
			}
			if d2 < best2 {
				second2 = best2
				best2 = d2
				best = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
		a[i] = best
		ub[i] = math.Sqrt(best2)
		lb[i] = math.Sqrt(second2)
		if raw {
			rl := rs.r1
			if rs.r1id == best {
				rl = rs.r2
			}
			if rs.floor2 < rl {
				rl = rs.floor2
			}
			rawLb[i] = math.Sqrt(rl)
		} else {
			localW[best] += w[i]
		}
	}
	kr.DistCalcs += distCalcs
	kr.Skips += skips
	kr.Breaks += breaks
}

// runCold is RunBounded's cold pass at d = 2 and 3 (RawLb nil): the
// generic body's skip test as a tight loop, and every rescan one rescan2
// or rescan3 call. It stores what runBounded stores, counters included
// (the distance and break counts only without an Anchor column, which
// runBounded does not read).
func (kr *AssignKernel) runCold(dim int, idx []int32, hamerly bool) {
	w, a, ub, lb, localW := kr.W, kr.A, kr.Ub, kr.Lb, kr.LocalW
	ubScale, lbScale := kr.UbScale, kr.LbScale
	scaled := ubScale != nil
	walk := hamerly && kr.CCOrder != nil
	anchors := kr.Anchor
	three := dim == 3
	var distCalcs, skips, breaks int64
	for _, i := range idx {
		cur := a[i]
		if hamerly && cur >= 0 {
			u, l := ub[i], lb[i]
			if scaled {
				u *= ubScale[cur]
				l *= lbScale
			}
			if u < l {
				if scaled {
					ub[i] = u
					lb[i] = l
				}
				skips++
				localW[cur] += w[i]
				continue
			}
		}
		an := int32(-1)
		if walk {
			if an = cur; an < 0 && anchors != nil {
				an = int32(anchors[i])
			}
		}
		var dc, br int64
		if three {
			dc, br = kr.rescan3(i, an)
		} else {
			dc, br = kr.rescan2(i, an)
		}
		distCalcs += dc
		breaks += br
	}
	kr.DistCalcs += distCalcs
	kr.Skips += skips
	kr.Breaks += breaks
}

// rescan2 recomputes point i's best and second-best center at d = 2 and
// stores A, Ub, Lb and the point's weight under its block: the anchored
// walk from center an ≥ 0, or the box-ordered scan for an < 0. It
// returns the centers it examined and whether the scan broke. Out of line
// by design, so that the skip loop calling it carries only the skip
// test's state (DESIGN.md, "Generic-dimension invariants").
//
//go:noinline
func (kr *AssignKernel) rescan2(i, an int32) (distCalcs, breaks int64) {
	x, y := kr.PX[i], kr.PY[i]
	cx, cy := kr.CX, kr.CY
	cx = cx[:len(cy)] // one bounds check per center covers both columns
	inv2 := kr.InvInf2
	best2, second2 := math.Inf(1), math.Inf(1)
	best := int32(0)
	if an >= 0 {
		dx, dy := x-cx[an], y-cy[an]
		rawA2 := dx*dx + dy*dy
		distCalcs++
		rub := math.Sqrt(rawA2)
		best2 = rawA2 * inv2[an]
		best = an
		invMaxInf2 := kr.RawLbInv * kr.RawLbInv
		row, k := int(an)*kr.K, kr.K
		scan, ccd := kr.CCOrder[row+1:row+k], kr.CCDist[row+1:row+k]
		ccd = ccd[:len(scan)] // no bounds check on ccd[j]
		for j, bc := range scan {
			if lr := ccd[j] - rub; lr > 0 && lr*lr*invMaxInf2 > second2 {
				breaks++
				break
			}
			dx, dy := x-cx[bc], y-cy[bc]
			d2 := (dx*dx + dy*dy) * inv2[bc]
			distCalcs++
			if d2 < best2 {
				second2 = best2
				best2 = d2
				best = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
	} else {
		dbb2, prune := kr.DistBB2, kr.Prune
		for _, bc := range kr.Order {
			if prune && dbb2[bc] > second2 {
				breaks++
				break
			}
			dx, dy := x-cx[bc], y-cy[bc]
			d2 := (dx*dx + dy*dy) * inv2[bc]
			distCalcs++
			if d2 < best2 {
				second2 = best2
				best2 = d2
				best = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
	}
	kr.A[i] = best
	kr.Ub[i] = math.Sqrt(best2)
	kr.Lb[i] = math.Sqrt(second2)
	kr.LocalW[best] += kr.W[i]
	return distCalcs, breaks
}

// rescan3 is rescan2 at d = 3.
//
//go:noinline
func (kr *AssignKernel) rescan3(i, an int32) (distCalcs, breaks int64) {
	x, y, z := kr.PX[i], kr.PY[i], kr.PZ[i]
	cx, cy, cz := kr.CX, kr.CY, kr.CZ
	cx, cy = cx[:len(cz)], cy[:len(cz)] // one bounds check per center covers all three
	inv2 := kr.InvInf2
	best2, second2 := math.Inf(1), math.Inf(1)
	best := int32(0)
	if an >= 0 {
		dx, dy, dz := x-cx[an], y-cy[an], z-cz[an]
		rawA2 := dx*dx + dy*dy + dz*dz
		distCalcs++
		rub := math.Sqrt(rawA2)
		best2 = rawA2 * inv2[an]
		best = an
		invMaxInf2 := kr.RawLbInv * kr.RawLbInv
		row, k := int(an)*kr.K, kr.K
		scan, ccd := kr.CCOrder[row+1:row+k], kr.CCDist[row+1:row+k]
		ccd = ccd[:len(scan)] // no bounds check on ccd[j]
		for j, bc := range scan {
			if lr := ccd[j] - rub; lr > 0 && lr*lr*invMaxInf2 > second2 {
				breaks++
				break
			}
			dx, dy, dz := x-cx[bc], y-cy[bc], z-cz[bc]
			d2 := (dx*dx + dy*dy + dz*dz) * inv2[bc]
			distCalcs++
			if d2 < best2 {
				second2 = best2
				best2 = d2
				best = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
	} else {
		dbb2, prune := kr.DistBB2, kr.Prune
		for _, bc := range kr.Order {
			if prune && dbb2[bc] > second2 {
				breaks++
				break
			}
			dx, dy, dz := x-cx[bc], y-cy[bc], z-cz[bc]
			d2 := (dx*dx + dy*dy + dz*dz) * inv2[bc]
			distCalcs++
			if d2 < best2 {
				second2 = best2
				best2 = d2
				best = bc
			} else if d2 < second2 {
				second2 = d2
			}
		}
	}
	kr.A[i] = best
	kr.Ub[i] = math.Sqrt(best2)
	kr.Lb[i] = math.Sqrt(second2)
	kr.LocalW[best] += kr.W[i]
	return distCalcs, breaks
}

// RunElkan executes the Elkan assignment pass over idx: per (point,
// center) raw-distance lower bounds skip centers that provably cannot
// win. Lbk entries live in raw-distance space (their maintenance
// subtracts center movements), so the squared-space comparison guards
// against non-positive bounds before squaring, and each actual distance
// evaluation spends one sqrt to refresh the stored raw bound.
//
// A pending UbScale is deliberately ignored here: this pass never reads
// Ub and freshly overwrites it for every visited point, which consumes
// the pending rescale by construction.
func (kr *AssignKernel) RunElkan(idx []int32) {
	pc, cc := kr.PC, kr.CC
	inv2 := kr.InvInf2
	order, dbb2 := kr.Order, kr.DistBB2
	prune := kr.Prune
	k := kr.K
	w, a, ub, lbk, localW := kr.W, kr.A, kr.Ub, kr.Lbk, kr.LocalW
	var distCalcs, skips, breaks int64
	for _, i := range idx {
		best2 := math.Inf(1)
		bestC := int32(0)
		row := int(i) * k
		cur := a[i]
		if cur >= 0 {
			raw2 := colsDist2(pc, cc, i, cur)
			distCalcs++
			lbk[row+int(cur)] = math.Sqrt(raw2)
			best2 = raw2 * inv2[cur]
			bestC = cur
		}
		for _, bc := range order {
			if bc == cur {
				continue
			}
			if prune && dbb2[bc] > best2 {
				breaks++
				break
			}
			if l := lbk[row+int(bc)]; l > 0 && l*l*inv2[bc] >= best2 {
				skips++
				continue
			}
			raw2 := colsDist2(pc, cc, i, bc)
			distCalcs++
			lbk[row+int(bc)] = math.Sqrt(raw2)
			if d2 := raw2 * inv2[bc]; d2 < best2 {
				best2 = d2
				bestC = bc
			}
		}
		a[i] = bestC
		ub[i] = math.Sqrt(best2)
		localW[bestC] += w[i]
	}
	kr.DistCalcs += distCalcs
	kr.Skips += skips
	kr.Breaks += breaks
}
