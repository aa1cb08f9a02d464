package exact

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refSum computes the exactly-rounded sum of vs with big.Float at a
// precision large enough to be exact for the inputs used in these tests.
func refSum(vs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	tmp := new(big.Float).SetPrec(4096)
	for _, v := range vs {
		acc.Add(acc, tmp.SetFloat64(v))
	}
	v, _ := acc.Float64()
	return v
}

func sumAll(vs []float64) float64 {
	var s Sum
	for _, v := range vs {
		s.Add(v)
	}
	return s.Float64()
}

func TestSingleValuesRoundTrip(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.1, -0.1, 1e300, -1e300, 1e-300, 3.5,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, // smallest normal
		0x1.fffffffffffffp1023 / 2,
		math.Pi, math.E, 1<<53 - 1, 1 << 53,
	}
	for _, v := range cases {
		var s Sum
		s.Add(v)
		if got := s.Float64(); got != v {
			t.Errorf("Add(%g).Float64() = %g", v, got)
		}
	}
}

func TestNegativeZeroAndEmpty(t *testing.T) {
	var s Sum
	if got := s.Float64(); got != 0 {
		t.Errorf("empty sum = %g", got)
	}
	s.Add(math.Copysign(0, -1))
	s.Add(0)
	if got := s.Float64(); got != 0 {
		t.Errorf("sum of zeros = %g", got)
	}
}

func TestNonFinite(t *testing.T) {
	var s Sum
	s.Add(1)
	s.Add(math.Inf(1))
	if got := s.Float64(); !math.IsInf(got, 1) {
		t.Errorf("sum with +Inf = %g", got)
	}
	s.Add(math.Inf(-1))
	if got := s.Float64(); !math.IsNaN(got) {
		t.Errorf("sum with +Inf and -Inf = %g, want NaN", got)
	}
	var s2 Sum
	s2.Add(math.NaN())
	s2.Add(5)
	if got := s2.Float64(); !math.IsNaN(got) {
		t.Errorf("sum with NaN = %g", got)
	}
	var s3 Sum
	s3.Add(math.Inf(-1))
	if got := s3.Float64(); !math.IsInf(got, -1) {
		t.Errorf("sum with -Inf = %g", got)
	}
}

func TestCancellation(t *testing.T) {
	vs := []float64{1e308, 1e-308, -1e308, 1.0, -1.0, 1e-308}
	want := 2e-308
	if got := sumAll(vs); got != want {
		t.Errorf("cancellation sum = %g, want %g", got, want)
	}
	// Exact cancellation to zero across the full range.
	var s Sum
	for _, v := range []float64{math.MaxFloat64, math.SmallestNonzeroFloat64} {
		s.Add(v)
		s.Add(-v)
	}
	if got := s.Float64(); got != 0 {
		t.Errorf("full cancellation = %g", got)
	}
}

func TestOverflowSaturates(t *testing.T) {
	var s Sum
	s.Add(math.MaxFloat64)
	s.Add(math.MaxFloat64)
	if got := s.Float64(); !math.IsInf(got, 1) {
		t.Errorf("2·MaxFloat64 = %g, want +Inf", got)
	}
	s.Add(-math.MaxFloat64)
	if got := s.Float64(); got != math.MaxFloat64 {
		// The accumulator is exact: the intermediate overflow must not
		// be sticky, unlike naive float64 accumulation.
		t.Errorf("2·Max − Max = %g, want MaxFloat64", got)
	}
}

func TestMatchesReferenceAcrossMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		vs := make([]float64, n)
		for i := range vs {
			mag := rng.Intn(600) - 300
			vs[i] = (rng.Float64()*2 - 1) * math.Pow(2, float64(mag))
		}
		got := sumAll(vs)
		want := refSum(vs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: sum = %g, want %g", trial, got, want)
		}
	}
}

func TestOrderAndGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 1000
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(40)-20))
	}
	want := sumAll(vs)

	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(n)
		// Random grouping into 1..8 accumulators, merged via the wire
		// format like a cross-rank reduction.
		groups := 1 + rng.Intn(8)
		wires := make([][]int64, groups)
		accs := make([]Sum, groups)
		for _, i := range perm {
			accs[rng.Intn(groups)].Add(vs[i])
		}
		total := make([]int64, WireLen)
		for g := range accs {
			wires[g] = make([]int64, WireLen)
			accs[g].EncodeTo(wires[g])
			for j, v := range wires[g] {
				total[j] += v
			}
		}
		if got := DecodeFloat64(total); got != want {
			t.Fatalf("trial %d (%d groups): %g != %g", trial, groups, got, want)
		}
	}
}

func TestMergeMatchesWireSum(t *testing.T) {
	var a, b Sum
	a.Add(1e100)
	a.Add(-3.25)
	b.Add(7e-200)
	b.Add(1e100)

	wa := make([]int64, WireLen)
	wb := make([]int64, WireLen)
	a.EncodeTo(wa)
	b.EncodeTo(wb)
	for i := range wa {
		wa[i] += wb[i]
	}
	a.Merge(&b)
	if got, want := a.Float64(), DecodeFloat64(wa); got != want {
		t.Errorf("Merge = %g, wire sum = %g", got, want)
	}
}

func TestManySmallAdds(t *testing.T) {
	// 1M unit weights: exact integer sum, no drift.
	var s Sum
	for i := 0; i < 1_000_000; i++ {
		s.Add(1)
	}
	if got := s.Float64(); got != 1_000_000 {
		t.Errorf("1M unit adds = %g", got)
	}
}

// bigDecode is the math/big decode production used before the integer
// round: fold the signed digits into one exact big.Int, highest limb
// first, scale by the accumulator unit and let big.Float round. It is
// the oracle the allocation-free round is pinned against.
func bigDecode(limb []int64) float64 {
	acc := new(big.Int)
	tmp := new(big.Int)
	for i := numLimbs - 1; i >= 0; i-- {
		acc.Lsh(acc, limbBits)
		acc.Add(acc, tmp.SetInt64(limb[i]))
	}
	if acc.Sign() == 0 {
		return 0
	}
	f := new(big.Float).SetPrec(uint(acc.BitLen()) + 1).SetInt(acc)
	f.SetMantExp(f, minExp) // z = f · 2^minExp
	v, _ := f.Float64()
	return v
}

// sameFloat is bit equality, except that any two NaNs are the same (NaN
// payloads are not part of the contract).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDecode compares the production decode of a raw wire vector with
// the oracle, through both entry points: the single-accumulator wire and
// a RowSums bank (column 1 of 3, window set to the tightest row range so
// the windowed limb walk is what runs).
func checkDecode(t *testing.T, name string, wire []int64) {
	t.Helper()
	want, forced := nonFinite(wire[numLimbs], wire[numLimbs+1], wire[numLimbs+2])
	if !forced {
		want = bigDecode(wire[:numLimbs])
	}
	if got := DecodeFloat64(wire); !sameFloat(got, want) {
		t.Errorf("%s: DecodeFloat64 = %x (%g), big = %x (%g)", name, math.Float64bits(got), got, math.Float64bits(want), want)
	}
	const m, col = 3, 1
	rs := NewRowSums(m)
	lo, hi := WireLen, 0
	for l, v := range wire {
		rs.Backing()[l*m+col] = v
		if v != 0 {
			lo, hi = min(lo, l), l+1
		}
	}
	if hi > lo {
		rs.SetWindow(lo*m, (hi-lo)*m)
	}
	if got := rs.Float64(col); !sameFloat(got, want) {
		t.Errorf("%s: RowSums.Float64 = %x (%g), big = %x (%g)", name, math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// TestDecodeMatchesBig pins the integer round against the math/big
// oracle on hand-built limb vectors — the cases sums of a few floats
// rarely produce: un-normalized and negative digits, long carry chains,
// exact ties, the subnormal boundary and the overflow boundary.
func TestDecodeMatchesBig(t *testing.T) {
	at := func(bit int) (limb int, v int64) { return bit / limbBits, 1 << (bit % limbBits) }
	set := func(w []int64, bit int, sign int64) {
		l, v := at(bit)
		w[l] += sign * v
	}
	cases := map[string]func(w []int64){
		"zero":             func(w []int64) {},
		"one unit":         func(w []int64) { w[0] = 1 },
		"minus one unit":   func(w []int64) { w[0] = -1 },
		"full cancel":      func(w []int64) { w[7] = 1; w[6] = -1 << 32 },
		"negative total":   func(w []int64) { w[40] = -12345; w[39] = 99; w[3] = -1 },
		"negative by top":  func(w []int64) { w[65] = -1; w[0] = 1 },
		"unnormalized big": func(w []int64) { w[10] = math.MaxInt64; w[11] = math.MaxInt64; w[12] = -3 },
		"min int64 limbs":  func(w []int64) { w[20] = math.MinInt64; w[21] = math.MinInt64; w[22] = math.MinInt64 },
		"carry ripple": func(w []int64) {
			// 2^32−1 in thirty consecutive digits plus one unit: the carry
			// runs the whole chain and leaves a single bit on top.
			for l := 5; l < 35; l++ {
				w[l] = 1<<32 - 1
			}
			w[5]++
		},
		"borrow ripple": func(w []int64) {
			w[35] = 1
			w[5] = -1 // 2^(32·35) − 2^(32·5): all-ones between
		},
		"tie to even down": func(w []int64) { set(w, 1200, 1); set(w, 1200-53, 1) },
		"tie to even up":   func(w []int64) { set(w, 1200, 1); set(w, 1200-52, 1); set(w, 1200-53, 1) },
		"tie plus sticky":  func(w []int64) { set(w, 1200, 1); set(w, 1200-53, 1); set(w, 3, 1) },
		"tie minus sticky": func(w []int64) { set(w, 1200, 1); set(w, 1200-53, 1); set(w, 3, -1) },
		"negative tie":     func(w []int64) { set(w, 1200, -1); set(w, 1200-53, -1) },
		"negative tie odd": func(w []int64) { set(w, 1200, -1); set(w, 1200-52, -1); set(w, 1200-53, -1) },
		"round carries out": func(w []int64) {
			for b := 900; b > 900-54; b-- { // 54 ones: rounds up to 2^901
				set(w, b, 1)
			}
		},
		"tie across limb edge": func(w []int64) { set(w, 32*30+20, 1); set(w, 32*30+20-53, 1) },
		"top bit 31":           func(w []int64) { set(w, 32*30+31, 1); set(w, 32*30+31-53, 1); set(w, 0, 1) },
		"top bit 0":            func(w []int64) { set(w, 32*30, 1); set(w, 32*30-53, 1) },
		"largest subnormal":    func(w []int64) { w[0] = 1<<32 - 1; w[1] = 1<<20 - 1 },
		"smallest normal":      func(w []int64) { set(w, 52, 1) },
		"just below normal":    func(w []int64) { set(w, 52, 1); w[0]-- },
		"bit 53 exact":         func(w []int64) { set(w, 53, 1); w[0]++ },
		"bit 53 tie":           func(w []int64) { set(w, 53, 1); w[0] += 3 },
		"subnormal by borrow":  func(w []int64) { w[1] = 1; w[0] = -7 },
		"max float":            func(w []int64) { set(w, 2098, 1); set(w, 2098-53, -1) },
		"rounds up to 2^1024":  func(w []int64) { set(w, 2098, 1); set(w, 2098-54, -1) },
		"just under the tie":   func(w []int64) { set(w, 2098, 1); set(w, 2098-54, -1); w[0]-- },
		"minus 2^1024":         func(w []int64) { set(w, 2098, -1) },
		"far past overflow":    func(w []int64) { w[65] = math.MaxInt64; w[64] = math.MaxInt64 },
		"nan counter":          func(w []int64) { w[numLimbs] = 1; w[5] = 9 },
		"posinf counter":       func(w []int64) { w[numLimbs+1] = 2; w[5] = -9 },
		"neginf counter":       func(w []int64) { w[numLimbs+2] = 1 },
		"both inf counters":    func(w []int64) { w[numLimbs+1] = 1; w[numLimbs+2] = 1 },
		"cancelled counters":   func(w []int64) { w[numLimbs] = 0; w[numLimbs+1] = -1; w[30] = 77 },
	}
	// The oracle decides every case; these pin that the boundary cases
	// are the boundaries their names claim.
	want := map[string]float64{
		"tie to even down":    0x1p126,
		"tie to even up":      0x1.0000000000002p126,
		"tie plus sticky":     0x1.0000000000001p126,
		"tie minus sticky":    0x1p126,
		"round carries out":   0x1p-173,
		"largest subnormal":   0x0.fffffffffffffp-1022,
		"smallest normal":     0x1p-1022,
		"max float":           math.MaxFloat64,
		"rounds up to 2^1024": math.Inf(1),
		"just under the tie":  math.MaxFloat64,
		"minus 2^1024":        math.Inf(-1),
	}
	for name, fill := range cases {
		w := make([]int64, WireLen)
		fill(w)
		checkDecode(t, name, w)
		if v, ok := want[name]; ok && DecodeFloat64(w) != v {
			t.Errorf("%s: decoded %g, want %g", name, DecodeFloat64(w), v)
		}
	}

	// Random signed digits of every magnitude, densely and sparsely
	// placed, so carries and borrows of random length meet random
	// rounding positions.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4000; trial++ {
		w := make([]int64, WireLen)
		lo := rng.Intn(numLimbs)
		n := 1 + rng.Intn(numLimbs-lo)
		for l := lo; l < lo+n; l++ {
			switch rng.Intn(5) {
			case 0: // sparse
			case 1:
				w[l] = int64(rng.Uint64()) // full range, either sign
			case 2:
				w[l] = 1<<32 - 1 // carry chain link
			case 3:
				w[l] = -int64(rng.Uint32())
			default:
				w[l] = int64(rng.Uint32())
			}
		}
		checkDecode(t, "random", w)
	}
}

// FuzzDecodeMatchesBig feeds raw limb vectors — not only sums of floats
// — to both decodes. The corpus bytes are little-endian int64 limbs
// placed from a start row; missing limbs are zero.
func FuzzDecodeMatchesBig(f *testing.F) {
	enc := func(start byte, limbs ...int64) []byte {
		b := []byte{start}
		for _, v := range limbs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(enc(0, 1))
	f.Add(enc(0, -1))
	f.Add(enc(1, 1<<20, -7))                                 // subnormal by borrow
	f.Add(enc(37, 1<<15, 1<<16))                             // exact tie
	f.Add(enc(37, 1, 1<<15, 1<<16))                          // tie + sticky
	f.Add(enc(5, 1<<32, 1<<32-1, 1<<32-1, 1<<32-1, 1<<32-1)) // carry ripple
	f.Add(enc(64, math.MaxInt64, math.MaxInt64))             // overflow
	f.Add(enc(20, math.MinInt64, math.MinInt64, 3))          // negation edge
	f.Add(enc(63, -1<<11, 1<<32-1, 1<<18))                   // rounds up to 2^1024
	f.Add(enc(66, 1))                                        // NaN counter
	f.Add(enc(67, 1, 1))                                     // +Inf and −Inf
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := make([]int64, WireLen)
		l := int(data[0]) % WireLen
		for data = data[1:]; len(data) >= 8 && l < WireLen; data, l = data[8:], l+1 {
			w[l] = int64(binary.LittleEndian.Uint64(data))
		}
		checkDecode(t, "fuzz", w)
	})
}

func BenchmarkSumAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.Float64() * 100
	}
	var s Sum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vs[i&4095])
	}
	sinkFloat = s.Float64()
}

var sinkFloat float64
