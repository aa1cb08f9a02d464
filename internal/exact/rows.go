package exact

import "math"

// RowSums is a bank of m superaccumulators stored limb-major: row l
// holds limb l of every sum, i.e. backing[l*m+j] is limb l of sum j,
// and the last three rows hold the nan/posInf/negInf counters. It is
// semantically identical to m parallel Sum values, shaped for the exact
// reductions of the k-means core:
//
//   - Limbs are signed and never normalized, so Sub is the exact inverse
//     of Add: a bank maintained by Sub(old sum, v) / Add(new sum, v) for
//     the values that moved holds, limb for limb, the integers of a bank
//     rebuilt from scratch. The core keeps one such local bank per
//     reduction and pays per changed point, not per point.
//
//   - The backing array IS the wire format: element-wise int64 summation
//     of two banks merges them, with no encode/decode copies. A reduction
//     folds into the backing array in place, which is why the maintained
//     local bank and the bank that rides the collective are two values:
//     CopyFrom loads the wire bank from the local one before each fold.
//
//   - Real inputs cluster in a narrow exponent range, so they touch a
//     handful of the 66 limb rows. The bank tracks the touched-row
//     window [Lo, Hi) and exchanges only rows[Lo*m : Hi*m] through
//     mpi.AllreduceSumSparse — ~10× less fold work and traffic than a
//     dense k·WireLen reduction, still bit-identical.
//
// The invariant behind the window: rows outside [lo, hi) are all-zero.
// Add and Sub grow the window over rows they touch (a Sub can zero a
// row but never shrinks the window: which rows a value touches depends
// on the value alone, not on the sum it sits in); Reset clears only the
// window; a sparse reduction whose result window is a superset (the
// union over ranks) writes global values into rows that were zero here,
// preserving the invariant when the window widens to the union.
//
// The zero-extended bank of m sums takes WireLen·m int64 — for k=256
// that is ~138 KB versus ~430 KB for 256 Sum values plus their wire
// buffer, which is what bounds per-rank scratch at p=4096 (DESIGN.md,
// "Scaling invariants").
type RowSums struct {
	m      int
	rows   []int64
	lo, hi int // touched-row window, in rows
}

// NewRowSums returns a bank of m empty sums.
func NewRowSums(m int) *RowSums {
	return &RowSums{m: m, rows: make([]int64, WireLen*m), lo: WireLen}
}

// Len returns the number of sums in the bank.
func (rs *RowSums) Len() int { return rs.m }

// Reset empties every sum. Only the touched window is cleared, so a
// bank whose inputs span few exponent rows resets in O(window·m).
func (rs *RowSums) Reset() {
	if rs.hi > rs.lo {
		clear(rs.rows[rs.lo*rs.m : rs.hi*rs.m])
	}
	rs.lo, rs.hi = WireLen, 0
}

// CopyFrom makes rs hold exactly the sums of src, a bank of the same
// length: the previous window is cleared and src's window copied, so the
// cost is O(window·m) like Reset.
func (rs *RowSums) CopyFrom(src *RowSums) {
	if src.m != rs.m {
		panic("exact: RowSums.CopyFrom across bank sizes")
	}
	rs.Reset()
	if src.hi > src.lo {
		copy(rs.rows[src.lo*rs.m:src.hi*rs.m], src.rows[src.lo*rs.m:src.hi*rs.m])
		rs.lo, rs.hi = src.lo, src.hi
	}
}

// Add accumulates v into sum j exactly. Same bit path as Sum.Add.
func (rs *RowSums) Add(j int, v float64) { rs.accumulate(j, v, false) }

// Sub removes one earlier Add(j, v) exactly: the same digits with the
// sign flipped, so the limbs end up as if v had never been added. A
// non-finite v decrements the counter its Add incremented — it is not
// Add(j, -v), which would count a second, opposite non-finite.
func (rs *RowSums) Sub(j int, v float64) { rs.accumulate(j, v, true) }

func (rs *RowSums) accumulate(j int, v float64, sub bool) {
	m := rs.m
	bits := math.Float64bits(v)
	exp := int((bits >> 52) & 0x7ff)
	frac := bits & (1<<52 - 1)
	if exp == 0x7ff {
		var row int
		switch {
		case frac != 0:
			row = numLimbs
		case bits>>63 == 0:
			row = numLimbs + 1
		default:
			row = numLimbs + 2
		}
		if sub {
			rs.rows[row*m+j]--
		} else {
			rs.rows[row*m+j]++
		}
		rs.grow(row, row+1)
		return
	}
	if exp == 0 && frac == 0 {
		return // ±0 contributes nothing
	}
	mant := frac
	e := minExp
	if exp != 0 {
		mant |= 1 << 52
		e = exp - 1075
	}
	p := e - minExp
	li := p >> 5
	sh := uint(p & 31)
	w := mant << sh
	lo := int64(w & 0xffffffff)
	mid := int64(w >> 32)
	hi := int64(mant >> (64 - sh)) // 0 when sh == 0 (Go shifts never wrap)
	if (bits>>63 != 0) != sub {
		lo, mid, hi = -lo, -mid, -hi
	}
	rs.rows[li*m+j] += lo
	rs.rows[(li+1)*m+j] += mid
	rs.rows[(li+2)*m+j] += hi
	rs.grow(li, li+3)
}

func (rs *RowSums) grow(lo, hi int) {
	if lo < rs.lo {
		rs.lo = lo
	}
	if hi > rs.hi {
		rs.hi = hi
	}
}

// Wire exposes the touched window as an offset and segment of the flat
// wire vector of conceptual length WireLen·m, ready for
// mpi.AllreduceSumSparse(c, WireLen·m, off, seg, rs.Backing()). The
// segment aliases the bank — summing into it merges banks.
func (rs *RowSums) Wire() (off int, seg []int64) {
	if rs.hi <= rs.lo {
		return 0, nil
	}
	return rs.lo * rs.m, rs.rows[rs.lo*rs.m : rs.hi*rs.m]
}

// Backing returns the full wire vector (length WireLen·m) for use as
// the in-place output of a sparse reduction.
func (rs *RowSums) Backing() []int64 { return rs.rows }

// SetWindow records that rows now holds valid (and outside, zero) data
// for the flat window [off, off+n) — the result window of a sparse
// reduction. off and n must be multiples of m, as produced by reducing
// Wire segments.
func (rs *RowSums) SetWindow(off, n int) {
	if n == 0 {
		rs.lo, rs.hi = WireLen, 0
		return
	}
	if off%rs.m != 0 || n%rs.m != 0 {
		panic("exact: RowSums window not row-aligned")
	}
	rs.lo, rs.hi = off/rs.m, (off+n)/rs.m
}

// Float64 returns the exactly-rounded value of sum j. Only the window's
// limbs are read, and nothing is allocated.
func (rs *RowSums) Float64(j int) float64 {
	m := rs.m
	if rs.hi > numLimbs {
		if v, ok := nonFinite(rs.rows[numLimbs*m+j], rs.rows[(numLimbs+1)*m+j], rs.rows[(numLimbs+2)*m+j]); ok {
			return v
		}
	}
	return round(rs.rows, m, j, min(rs.lo, numLimbs), min(rs.hi, numLimbs))
}
