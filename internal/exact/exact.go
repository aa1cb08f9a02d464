// Package exact provides order-independent, exactly-rounded float64
// accumulators for the reductions of the balanced k-means core whose
// result must not depend on how points are grouped into ranks and
// kernel chunks: every global float sum of the warm-start repartitioning
// path and of the unsampled cold path.
//
// Floating-point addition is not associative, so a global weight or
// center sum depends on the summation order — the one obstacle to
// partitions that are bit-identical across Processes and Workers (see
// DESIGN.md, "Repartitioning invariants"). A superaccumulator sidesteps
// this: every contribution is split into signed base-2^32 digits of a
// fixed-point number wide enough to hold any finite float64 sum exactly.
// The digits (limbs) are plain int64 values that are never normalized,
// so integer limb addition is associative and commutative — any grouping
// of Add calls and any element-wise merge order yield the same limbs —
// and it has an exact inverse: subtracting a contribution's digits
// leaves the limbs as if it had never been added. The value is rounded
// to the nearest float64 once, when it is read.
//
// RowSums is the production form: a limb-major bank of m sums whose
// backing array is its own reduction wire (mpi.AllreduceSumSparse folds
// the touched limb rows in place) and which supports Sub, so the core
// maintains its banks by the points whose assignment changed instead of
// rebuilding them every round (DESIGN.md, "Scaling invariants"). Sum is
// the single-accumulator form with the same bit path, kept as the
// reference RowSums is tested against.
package exact

import (
	"math"
	"math/bits"
)

const (
	// limbBits is the width of one accumulator digit. Digits are kept in
	// int64 so carries accumulate in the spare high bits instead of
	// requiring propagation on every Add.
	limbBits = 32

	// minExp is the exponent of the accumulator's least significant bit:
	// the smallest subnormal float64 is 2^-1074.
	minExp = -1074

	// numLimbs spans the full finite float64 range: the largest finite
	// mantissa bit sits at exponent 971+52 = 1023, i.e. offset
	// 1023-minExp = 2097, limb 65. An Add touches limbs [li, li+2], so
	// 66 limbs suffice.
	numLimbs = 66

	// WireLen is the []int64 footprint of one encoded Sum: the limbs
	// plus the three non-finite counters.
	WireLen = numLimbs + 3
)

// MaxAdds bounds the number of contributions one accumulator may hold
// (summed over all accumulators merged into one, e.g. across ranks)
// before a limb could overflow: each contribution is < 2^32 per limb
// digit, and int64 holds 2^63. A limb holds the digits of the live
// contributions only — a Sub cancels its Add exactly — so the bound is
// on the points in a bank, not on the Add/Sub operations performed over
// a session's lifetime.
const MaxAdds = 1 << 31

// Sum is a superaccumulator for float64 values. The zero value is an
// empty sum. Sum is not safe for concurrent use.
type Sum struct {
	limb [numLimbs]int64
	// Non-finite inputs are counted, not accumulated: any NaN (or both
	// infinity signs) makes the sum NaN, one infinity sign makes it
	// that infinity — matching the result of ordinary float64 addition
	// up to the usual Inf-Inf ambiguity, which IEEE also defines as NaN.
	nan, posInf, negInf int64
}

// Reset empties the accumulator.
func (s *Sum) Reset() { *s = Sum{} }

// Add accumulates v exactly.
func (s *Sum) Add(v float64) {
	bits := math.Float64bits(v)
	exp := int((bits >> 52) & 0x7ff)
	frac := bits & (1<<52 - 1)
	if exp == 0x7ff {
		switch {
		case frac != 0:
			s.nan++
		case bits>>63 == 0:
			s.posInf++
		default:
			s.negInf++
		}
		return
	}
	if exp == 0 && frac == 0 {
		return // ±0 contributes nothing
	}
	// v = m · 2^e with m < 2^53: normals are (2^52|frac)·2^(exp-1075),
	// subnormals frac·2^-1074.
	m := frac
	e := minExp
	if exp != 0 {
		m |= 1 << 52
		e = exp - 1075
	}
	p := e - minExp // bit offset of m's bit 0 in the accumulator
	li := p >> 5
	sh := uint(p & 31)
	w := m << sh // low 64 bits of the shifted mantissa
	lo := int64(w & 0xffffffff)
	mid := int64(w >> 32)
	hi := int64(m >> (64 - sh)) // 0 when sh == 0 (Go shifts never wrap)
	if bits>>63 != 0 {
		lo, mid, hi = -lo, -mid, -hi
	}
	s.limb[li] += lo
	s.limb[li+1] += mid
	s.limb[li+2] += hi
}

// Merge adds the contents of o into s. Equivalent to summing the two
// encoded forms element-wise.
func (s *Sum) Merge(o *Sum) {
	for i := range s.limb {
		s.limb[i] += o.limb[i]
	}
	s.nan += o.nan
	s.posInf += o.posInf
	s.negInf += o.negInf
}

// EncodeTo writes the accumulator into dst[:WireLen]. Encoded
// accumulators may be summed element-wise (e.g. by mpi.AllreduceSum)
// and the result decoded with DecodeFloat64; integer addition is
// associative, so the decode is independent of the merge order.
func (s *Sum) EncodeTo(dst []int64) {
	_ = dst[WireLen-1]
	copy(dst, s.limb[:])
	dst[numLimbs] = s.nan
	dst[numLimbs+1] = s.posInf
	dst[numLimbs+2] = s.negInf
}

// Float64 returns the exactly-rounded (nearest-even) float64 value of
// the sum; overflow saturates to ±Inf like ordinary float64 addition.
func (s *Sum) Float64() float64 {
	if v, ok := nonFinite(s.nan, s.posInf, s.negInf); ok {
		return v
	}
	return round(s.limb[:], 1, 0, 0, numLimbs)
}

// DecodeFloat64 rounds an encoded (possibly element-wise summed)
// accumulator from src[:WireLen].
func DecodeFloat64(src []int64) float64 {
	_ = src[WireLen-1]
	if v, ok := nonFinite(src[numLimbs], src[numLimbs+1], src[numLimbs+2]); ok {
		return v
	}
	return round(src, 1, 0, 0, numLimbs)
}

// nonFinite resolves the non-finite counters: the value they force and
// whether they force one.
func nonFinite(nan, posInf, negInf int64) (float64, bool) {
	switch {
	case nan > 0 || (posInf > 0 && negInf > 0):
		return math.NaN(), true
	case posInf > 0:
		return math.Inf(1), true
	case negInf > 0:
		return math.Inf(-1), true
	}
	return 0, false
}

// round returns the float64 nearest (ties to even) to the exact value
// Σ rows[l·stride+j]·2^(32l+minExp) over the limb rows l in [lo, hi) —
// limb l of sum j in a limb-major bank of stride sums, or of a single
// Sum at stride 1. Limbs are arbitrary signed int64 digits. Pure integer
// work on a stack array: nothing is allocated.
func round(rows []int64, stride, j, lo, hi int) float64 {
	// Pass 1: propagate carries upward into digits in [0, 2^32). Each
	// limb is split before the carry joins it, so no int64 can overflow.
	// The final carry is the signed digit above the window: it alone
	// decides the sign, everything below it is non-negative.
	var dig [numLimbs + 1]uint32
	var carry int64
	for l := lo; l < hi; l++ {
		v := rows[l*stride+j]
		t := int64(uint32(v)) + carry
		dig[l] = uint32(t)
		carry = v>>32 + t>>32
	}
	neg := carry < 0
	if neg {
		// Pass 2: the magnitude is the two's complement of the digit
		// string, with the top digit −carry−1 plus the carry out of it.
		c := uint64(1)
		for l := lo; l < hi; l++ {
			t := uint64(^dig[l]) + c
			dig[l] = uint32(t)
			c = t >> 32
		}
		carry = -carry - 1 + int64(c)
	}
	dig[hi] = uint32(carry) // |carry| ≤ 2^31+1 by construction

	top := hi
	for top >= lo && dig[top] == 0 {
		top--
	}
	if top < lo {
		return 0
	}
	at := func(l int) uint64 {
		if l < 0 {
			return 0
		}
		return uint64(dig[l])
	}
	bl := bits.Len32(dig[top])
	msb := 32*top + bl - 1 // bit offset of the leading one, in units of 2^minExp

	var v float64
	if msb <= 52 {
		// Subnormal range up to the first normal binade: the accumulator's
		// unit is the float64 subnormal unit, so the magnitude IS the bit
		// pattern — exact, no rounding.
		v = math.Float64frombits(at(1)<<32 | at(0))
	} else {
		// The 64 bits from the leading one down, plus whether anything
		// non-zero lies below them.
		m64 := at(top)<<(64-bl) | at(top-1)<<(32-bl) | at(top-2)>>bl
		sticky := at(top-2)&(1<<bl-1) != 0
		for l := top - 3; l >= lo && !sticky; l-- {
			sticky = dig[l] != 0
		}
		mant, rem := m64>>11, m64&(1<<11-1)
		const half = 1 << 10
		if rem > half || (rem == half && (sticky || mant&1 == 1)) {
			mant++ // may reach 2^53: still exact in float64, Ldexp renormalizes
		}
		v = math.Ldexp(float64(mant), msb-52+minExp) // saturates to +Inf past MaxFloat64
	}
	if neg {
		return -v
	}
	return v
}
