package geom

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist2Cases(t *testing.T) {
	p := Point{0, 0, 0}
	q := Point{3, 4, 0}
	if got := Dist2(p, q, 2); got != 25 {
		t.Errorf("Dist2 2D = %g, want 25", got)
	}
	if got := Dist(p, q, 2); got != 5 {
		t.Errorf("Dist 2D = %g, want 5", got)
	}
	q3 := Point{1, 2, 2}
	if got := Dist2(p, q3, 3); got != 9 {
		t.Errorf("Dist2 3D = %g, want 9", got)
	}
	if got := Dist2(p, q3, 1); got != 1 {
		t.Errorf("Dist2 1D = %g, want 1", got)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(a, b [3]float64) bool {
		p, q := Point(a), Point(b)
		for dim := 2; dim <= 3; dim++ {
			if Dist2(p, q, dim) != Dist2(q, p, dim) {
				return false
			}
			if Dist2(p, q, dim) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	// The Hamerly bounds in the core package rely on the triangle
	// inequality of Dist; check it on random triples.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		var a, b, c Point
		for d := 0; d < 3; d++ {
			a[d], b[d], c[d] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		for dim := 2; dim <= 3; dim++ {
			ab, bc, ac := Dist(a, b, dim), Dist(b, c, dim), Dist(a, c, dim)
			if ac > ab+bc+1e-12 {
				t.Fatalf("triangle inequality violated: %g > %g + %g", ac, ab, bc)
			}
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := EmptyBox(2)
	if !b.Empty() {
		t.Fatal("EmptyBox not empty")
	}
	b.Extend(Point{1, 2})
	b.Extend(Point{-1, 5})
	if b.Empty() {
		t.Fatal("box with points reports empty")
	}
	if b.Min != (Point{-1, 2}) || b.Max != (Point{1, 5}) {
		t.Fatalf("bad bounds: %v", b)
	}
	if b.Side(0) != 2 || b.Side(1) != 3 {
		t.Fatalf("bad sides: %g, %g", b.Side(0), b.Side(1))
	}
	if b.WidestAxis() != 1 {
		t.Fatalf("widest axis = %d, want 1", b.WidestAxis())
	}
	if got := b.Center(); got != (Point{0, 3.5}) {
		t.Fatalf("center = %v", got)
	}
	if math.Abs(b.Diagonal()-math.Sqrt(13)) > 1e-12 {
		t.Fatalf("diagonal = %g", b.Diagonal())
	}
	if !b.Contains(Point{0, 3}) || b.Contains(Point{0, 6}) {
		t.Fatal("Contains wrong")
	}
	u := b.Union(NewBox(Point{5, 5}, Point{6, 6}, 2))
	if u.Max != (Point{6, 6}) || u.Min != (Point{-1, 2}) {
		t.Fatalf("union = %v", u)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBoxMinMaxDist(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1}, 2)
	cases := []struct {
		p        Point
		min, max float64
	}{
		{Point{0.5, 0.5}, 0, math.Sqrt(0.5)},
		{Point{2, 0.5}, 1, math.Sqrt(4 + 0.25)},
		{Point{-1, -1}, math.Sqrt2, math.Sqrt(8)},
		{Point{0.5, 3}, 2, math.Sqrt(0.25 + 9)},
	}
	for _, c := range cases {
		if got := b.MinDist(c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist(%v) = %g, want %g", c.p, got, c.min)
		}
		if got := b.MaxDist(c.p); math.Abs(got-c.max) > 1e-12 {
			t.Errorf("MaxDist(%v) = %g, want %g", c.p, got, c.max)
		}
	}
}

// Property: for any point q inside the box, MinDist(p) <= Dist(p,q) <= MaxDist(p).
func TestBoxDistBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		dim := 2 + trial%2
		b := EmptyBox(dim)
		var q Point
		for d := 0; d < dim; d++ {
			lo, hi := rng.Float64()*10-5, rng.Float64()*10-5
			if lo > hi {
				lo, hi = hi, lo
			}
			b.Min[d], b.Max[d] = lo, hi
			q[d] = lo + rng.Float64()*(hi-lo)
		}
		var p Point
		for d := 0; d < dim; d++ {
			p[d] = rng.Float64()*20 - 10
		}
		dist := Dist(p, q, dim)
		if dist < b.MinDist(p)-1e-9 {
			t.Fatalf("dim %d: dist %g < MinDist %g", dim, dist, b.MinDist(p))
		}
		if dist > b.MaxDist(p)+1e-9 {
			t.Fatalf("dim %d: dist %g > MaxDist %g", dim, dist, b.MaxDist(p))
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p, q := Point{1, 2, 3}, Point{4, 5, 6}
	if p.Add(q) != (Point{5, 7, 9}) {
		t.Error("Add")
	}
	if q.Sub(p) != (Point{3, 3, 3}) {
		t.Error("Sub")
	}
	if p.Scale(2) != (Point{2, 4, 6}) {
		t.Error("Scale")
	}
	if p.Dot(q, 3) != 32 {
		t.Error("Dot 3D")
	}
	if p.Dot(q, 2) != 14 {
		t.Error("Dot 2D")
	}
}

func TestPointSetBasics(t *testing.T) {
	ps := NewPointSet(2, 4)
	ps.Append(Point{0, 0}, 1)
	ps.Append(Point{1, 0}, 1)
	if ps.Weight != nil {
		t.Fatal("unit weights should stay implicit")
	}
	ps.Append(Point{1, 1}, 2.5)
	if ps.Weight == nil {
		t.Fatal("non-unit weight must materialize weights")
	}
	if ps.Len() != 3 {
		t.Fatalf("Len = %d", ps.Len())
	}
	if ps.W(0) != 1 || ps.W(2) != 2.5 {
		t.Fatalf("weights: %v", ps.Weight)
	}
	if ps.TotalWeight() != 4.5 {
		t.Fatalf("TotalWeight = %g", ps.TotalWeight())
	}
	if ps.At(1) != (Point{1, 0}) {
		t.Fatalf("At(1) = %v", ps.At(1))
	}
	ps.Set(1, Point{9, 9})
	if ps.At(1) != (Point{9, 9}) {
		t.Fatal("Set failed")
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := ps.Bounds()
	if b.Min != (Point{0, 0}) || b.Max != (Point{9, 9}) {
		t.Fatalf("bounds: %v", b)
	}

	cl := ps.Clone()
	cl.Set(0, Point{7, 7})
	if ps.At(0) == (Point{7, 7}) {
		t.Fatal("Clone aliases original")
	}

	sub := ps.Subset([]int{2, 0})
	if sub.Len() != 2 || sub.At(0) != (Point{1, 1}) || sub.W(0) != 2.5 {
		t.Fatalf("Subset wrong: %v %v", sub.Coords, sub.Weight)
	}
}

func TestPointSetUnweightedTotals(t *testing.T) {
	ps := NewPointSet(3, 2)
	ps.Append(Point{0, 0, 0}, 1)
	ps.Append(Point{1, 1, 1}, 1)
	if ps.TotalWeight() != 2 {
		t.Fatalf("TotalWeight = %g", ps.TotalWeight())
	}
	sub := ps.Subset([]int{1})
	if sub.Weight != nil || sub.Len() != 1 {
		t.Fatal("Subset of unweighted set should stay unweighted")
	}
}

func TestPointSetValidateErrors(t *testing.T) {
	bad := &PointSet{Dim: 0}
	if bad.Validate() == nil {
		t.Error("dim 0 should fail")
	}
	if ok := (&PointSet{Dim: 5}).Validate(); ok != nil {
		t.Errorf("dim 5 is a valid feature-space set: %v", ok)
	}
	bad = &PointSet{Dim: 2, Coords: []float64{1, 2, 3}}
	if bad.Validate() == nil {
		t.Error("odd coord count should fail")
	}
	bad = &PointSet{Dim: 2, Coords: []float64{1, 2}, Weight: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Error("weight length mismatch should fail")
	}
	for _, bad := range []*PointSet{
		{Dim: 2, Coords: []float64{1, 2}, Weight: []float64{-1}},
		{Dim: 2, Coords: []float64{1, 2}, Weight: []float64{math.NaN()}},
		{Dim: 2, Coords: []float64{1, 2}, Weight: []float64{math.Inf(1)}},
		{Dim: 2, Coords: []float64{1, math.NaN()}},
		{Dim: 2, Coords: []float64{math.Inf(-1), 2}, Weight: []float64{1}},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("coords %v weights %v: %v, want ErrNonFinite", bad.Coords, bad.Weight, err)
		}
	}
	ok := &PointSet{Dim: 2, Coords: []float64{-math.MaxFloat64, 0}, Weight: []float64{0}}
	if err := ok.Validate(); err != nil {
		t.Errorf("extreme finite values and a zero weight are valid: %v", err)
	}
}

func BenchmarkDist2_2D(b *testing.B) {
	p, q := Point{0.3, 0.7}, Point{0.9, 0.1}
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += Dist2(p, q, 2)
	}
	_ = s
}

func BenchmarkBoxMinDist2(b *testing.B) {
	box := NewBox(Point{0, 0, 0}, Point{1, 1, 1}, 3)
	p := Point{2, -1, 0.5}
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += box.MinDist2(p)
	}
	_ = s
}
