package partition

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	p := New(4, 2)
	p.Assign = []int32{0, 1, 0, 1}
	if err := p.Validate(true); err != nil {
		t.Fatal(err)
	}
	p.Assign[0] = 5
	if p.Validate(false) == nil {
		t.Error("invalid block id accepted")
	}
	p.Assign = []int32{0, 0, 0, 0}
	if p.Validate(true) == nil {
		t.Error("empty block accepted in strict mode")
	}
	if err := p.Validate(false); err != nil {
		t.Errorf("empty block rejected in lax mode: %v", err)
	}
	bad := P{K: 0}
	if bad.Validate(false) == nil {
		t.Error("k=0 accepted")
	}
}

func TestSizes(t *testing.T) {
	p := P{Assign: []int32{0, 2, 2, 1, 2}, K: 3}
	s := p.Sizes()
	if s[0] != 1 || s[1] != 1 || s[2] != 3 {
		t.Errorf("sizes = %v", s)
	}
}

func TestTargetsUniform(t *testing.T) {
	tg, err := Targets(100, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tg {
		if v != 25 {
			t.Errorf("targets = %v", tg)
		}
	}
}

func TestTargetsHeterogeneous(t *testing.T) {
	tg, err := Targets(100, 2, []float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if tg[0] != 75 || tg[1] != 25 {
		t.Errorf("targets = %v", tg)
	}
	if _, err := Targets(100, 3, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Targets(100, 2, []float64{0.9, 0.3}); err == nil {
		t.Error("bad sum accepted")
	}
	if _, err := Targets(100, 2, []float64{1.5, -0.5}); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestMaxLoadRatio(t *testing.T) {
	// Blocks of 3 and 1 unit points against the uniform targets of 4.
	tg, _ := Targets(4, 2, nil)
	r := MaxLoadRatio([]float64{3, 1}, tg)
	if math.Abs(r-1.5) > 1e-12 {
		t.Errorf("ratio = %g, want 1.5", r)
	}
	// A block without a positive target is not measured.
	if r := MaxLoadRatio([]float64{3, 1}, []float64{0, 2}); r != 0.5 {
		t.Errorf("ratio with a zero target = %g, want 0.5", r)
	}
	if r := MaxLoadRatio([]float64{3}, []float64{0}); r != 0 {
		t.Errorf("ratio with no positive target = %g, want 0", r)
	}
}

// TestCheck: the one block-id range check every boundary that accepts
// an assignment calls.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		part []int32
		n, k int
		ok   bool
	}{
		{"valid", []int32{0, 2, 1}, 3, 3, true},
		{"empty", nil, 0, 1, true},
		{"k=0", []int32{0}, 1, 0, false},
		{"short", []int32{0}, 2, 1, false},
		{"long", []int32{0, 0, 0}, 2, 1, false},
		{"negative id", []int32{0, -1}, 2, 2, false},
		{"id = k", []int32{0, 2}, 2, 2, false},
	} {
		if err := Check(tc.part, tc.n, tc.k); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
