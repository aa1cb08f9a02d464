package exact

import (
	"math"
	"math/rand"
	"testing"
)

// RowSums must agree bit-for-bit with a bank of Sum accumulators on any
// input mix, including subnormals, huge magnitudes, and non-finites.
func TestRowSumsMatchesSum(t *testing.T) {
	const m = 7
	rng := rand.New(rand.NewSource(42))
	rs := NewRowSums(m)
	ref := make([]Sum, m)
	for i := 0; i < 5000; i++ {
		j := rng.Intn(m)
		var v float64
		switch rng.Intn(10) {
		case 0:
			v = math.Ldexp(rng.Float64()-0.5, rng.Intn(600)-300)
		case 1:
			v = math.Ldexp(rng.Float64(), -1070-rng.Intn(5)) // subnormal range
		case 2:
			v = 0
		default:
			v = (rng.Float64() - 0.5) * 1e6
		}
		rs.Add(j, v)
		ref[j].Add(v)
	}
	for j := 0; j < m; j++ {
		got, want := rs.Float64(j), ref[j].Float64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sum %d: RowSums %x != Sum %x", j, got, want)
		}
	}
}

func TestRowSumsNonFinite(t *testing.T) {
	rs := NewRowSums(3)
	rs.Add(0, math.Inf(1))
	rs.Add(0, 1)
	rs.Add(1, math.Inf(-1))
	rs.Add(2, math.NaN())
	if v := rs.Float64(0); !math.IsInf(v, 1) {
		t.Errorf("sum 0 = %g, want +Inf", v)
	}
	if v := rs.Float64(1); !math.IsInf(v, -1) {
		t.Errorf("sum 1 = %g, want -Inf", v)
	}
	if v := rs.Float64(2); !math.IsNaN(v) {
		t.Errorf("sum 2 = %g, want NaN", v)
	}
}

// The wire window must cover exactly the touched rows, and element-wise
// summation of two banks' windows must merge them, matching Sum.Merge.
func TestRowSumsWireMerge(t *testing.T) {
	const m = 4
	a, b := NewRowSums(m), NewRowSums(m)
	refA, refB := make([]Sum, m), make([]Sum, m)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		j := rng.Intn(m)
		va := (rng.Float64() - 0.5) * 1e3
		vb := math.Ldexp(rng.Float64()-0.5, rng.Intn(100)-50)
		a.Add(j, va)
		refA[j].Add(va)
		b.Add(j, vb)
		refB[j].Add(vb)
	}
	// Merge b into a through the flat wire: union window, element-wise add.
	offA, segA := a.Wire()
	offB, segB := b.Wire()
	lo := min(offA, offB)
	hi := max(offA+len(segA), offB+len(segB))
	back := a.Backing()
	for i, v := range segB {
		back[offB+i] += v
	}
	_ = offA
	a.SetWindow(lo, hi-lo)
	for j := 0; j < m; j++ {
		refA[j].Merge(&refB[j])
		got, want := a.Float64(j), refA[j].Float64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("merged sum %d: %x != %x", j, got, want)
		}
	}
	_ = segA
}

// Typical k-means data (weights near 1, coordinates in a unit box)
// must touch only a few rows, and Reset must restore the empty state.
func TestRowSumsWindowNarrowAndReset(t *testing.T) {
	const m = 8
	rs := NewRowSums(m)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		rs.Add(rng.Intn(m), rng.Float64())
	}
	_, seg := rs.Wire()
	if rows := len(seg) / m; rows > 4 {
		t.Errorf("unit-box inputs touched %d rows; expected a narrow window", rows)
	}
	rs.Reset()
	if off, seg := rs.Wire(); off != 0 || seg != nil {
		t.Errorf("Reset left window (%d, %d)", off, len(seg))
	}
	for _, v := range rs.Backing() {
		if v != 0 {
			t.Fatal("Reset left nonzero backing")
		}
	}
	for j := 0; j < m; j++ {
		if rs.Float64(j) != 0 {
			t.Errorf("sum %d nonzero after Reset", j)
		}
	}
	// Reuse after Reset behaves like a fresh bank.
	rs.Add(2, 1.5)
	rs.Add(2, 2.5)
	if got := rs.Float64(2); got != 4 {
		t.Errorf("reused sum = %g, want 4", got)
	}
}

// Sub must be the exact inverse of Add: after any interleaving of adds
// and removals, the bank holds — element for element — the integers of
// a bank that only ever saw the surviving adds, and its window still
// covers every non-zero row. Non-finite values are the sharp case: a
// removed +Inf must decrement the +Inf counter, not count a −Inf.
func TestRowSumsSubInvertsAdd(t *testing.T) {
	const m = 5
	type entry struct {
		j int
		v float64
	}
	draw := func(rng *rand.Rand) float64 {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return 0
		case 5:
			return math.Copysign(math.Ldexp(rng.Float64(), -1070-rng.Intn(5)), rng.Float64()-0.5) // subnormal
		case 6:
			return math.Ldexp(rng.Float64()-0.5, rng.Intn(2000)-1000)
		default:
			return (rng.Float64() - 0.5) * 1e4
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := NewRowSums(m)
		var live []entry
		for op := 0; op < 3000; op++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(live))
				rs.Sub(live[i].j, live[i].v)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			e := entry{rng.Intn(m), draw(rng)}
			rs.Add(e.j, e.v)
			live = append(live, e)
		}
		if seed%4 == 0 { // and all the way down to empty
			for _, e := range live {
				rs.Sub(e.j, e.v)
			}
			live = nil
		}
		want := NewRowSums(m)
		for _, e := range live {
			want.Add(e.j, e.v)
		}
		for i, v := range want.Backing() {
			if got := rs.Backing()[i]; got != v {
				t.Fatalf("seed %d: row %d sum %d holds %d, a bank of the surviving adds holds %d", seed, i/m, i%m, got, v)
			}
		}
		off, seg := rs.Wire()
		for i, v := range rs.Backing() {
			if v != 0 && (i < off || i >= off+len(seg)) {
				t.Fatalf("seed %d: non-zero row %d outside the window [%d, %d)", seed, i/m, off/m, (off+len(seg))/m)
			}
		}
		for j := 0; j < m; j++ {
			if got, w := rs.Float64(j), want.Float64(j); !sameFloat(got, w) {
				t.Errorf("seed %d sum %d: %g, want %g", seed, j, got, w)
			}
		}
	}
}

// CopyFrom must leave the destination equal to the source whatever the
// destination held before, including rows outside the source's window.
func TestRowSumsCopyFrom(t *testing.T) {
	const m = 3
	src, dst := NewRowSums(m), NewRowSums(m)
	dst.Add(0, 1e200)
	dst.Add(2, math.NaN())
	src.Add(1, 2.5)
	src.Add(2, -1e-3)
	dst.CopyFrom(src)
	for i, v := range src.Backing() {
		if dst.Backing()[i] != v {
			t.Fatalf("element %d: %d, want %d", i, dst.Backing()[i], v)
		}
	}
	so, ss := src.Wire()
	do, ds := dst.Wire()
	if so != do || len(ss) != len(ds) {
		t.Errorf("window (%d,%d), want (%d,%d)", do, len(ds), so, len(ss))
	}
	dst.CopyFrom(NewRowSums(m))
	if off, seg := dst.Wire(); off != 0 || seg != nil {
		t.Errorf("copy of an empty bank left window (%d,%d)", off, len(seg))
	}
	for _, v := range dst.Backing() {
		if v != 0 {
			t.Fatal("copy of an empty bank left non-zero backing")
		}
	}
}

// BenchmarkRowSumsFloat64 is the decode on the shape the warm path reads
// it: a k = 32 bank whose sums span a five-row window, every sum rounded
// once per op. It must report 0 allocs/op.
func BenchmarkRowSumsFloat64(b *testing.B) {
	const k = 32
	rng := rand.New(rand.NewSource(1))
	rs := NewRowSums(k)
	for i := 0; i < 1<<14; i++ {
		rs.Add(rng.Intn(k), math.Ldexp(0.5+rng.Float64(), rng.Intn(48)-10))
	}
	if _, seg := rs.Wire(); len(seg) != 5*k {
		b.Fatalf("window of %d rows, want 5", len(seg)/k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			sinkFloat += rs.Float64(j)
		}
	}
}
