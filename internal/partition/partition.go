// Package partition defines the common types shared by all partitioners:
// the block assignment vector and its two contracts — validity (Check)
// and balance (Targets, MaxLoadRatio, including the heterogeneous block
// sizes of the paper's footnote 1).
package partition

import "fmt"

// P assigns each point a block id in [0, K).
type P struct {
	Assign []int32
	K      int
}

// New allocates an all-zero assignment.
func New(n, k int) P {
	return P{Assign: make([]int32, n), K: k}
}

// Check checks that part assigns each of the n points a block id in
// [0, k). Every boundary that accepts an assignment calls it first: the
// per-block passes behind it index arrays of length k by block id and
// would panic on an out-of-range id.
func Check(part []int32, n, k int) error {
	if k < 1 {
		return fmt.Errorf("partition: k=%d", k)
	}
	if len(part) != n {
		return fmt.Errorf("partition: %d assignments for %d points", len(part), n)
	}
	for i, b := range part {
		if b < 0 || int(b) >= k {
			return fmt.Errorf("partition: point %d assigned to invalid block %d (k=%d)", i, b, k)
		}
	}
	return nil
}

// Validate checks that every assignment is a legal block id and, when
// strict, that no block is empty.
func (p P) Validate(strict bool) error {
	if err := Check(p.Assign, len(p.Assign), p.K); err != nil {
		return err
	}
	if strict {
		for b, c := range p.Sizes() {
			if c == 0 {
				return fmt.Errorf("partition: block %d is empty", b)
			}
		}
	}
	return nil
}

// Sizes returns the number of points per block.
func (p P) Sizes() []int64 {
	s := make([]int64, p.K)
	for _, b := range p.Assign {
		s[b]++
	}
	return s
}

// CheckFractions validates heterogeneous target fractions (paper
// footnote 1): length k, every fraction strictly positive and finite,
// sum within 1±0.001. It returns the sum so callers can normalize.
// A zero or negative fraction would silently skew the balance targets
// (its block can never meet a non-positive target), so it is an error,
// not a degenerate configuration.
func CheckFractions(fractions []float64, k int) (float64, error) {
	if len(fractions) != k {
		return 0, fmt.Errorf("partition: %d fractions for k=%d", len(fractions), k)
	}
	sum := 0.0
	for _, f := range fractions {
		if !(f > 0) || f > 1 {
			return 0, fmt.Errorf("partition: fraction %g outside (0, 1]", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return 0, fmt.Errorf("partition: fractions sum to %g, want 1", sum)
	}
	return sum, nil
}

// Targets computes per-block target weights. With fractions == nil all
// blocks get totalWeight/k (the standard balance constraint); otherwise
// fractions must sum to ~1 and block b targets fractions[b]·totalWeight
// (heterogeneous architectures, paper footnote 1).
func Targets(totalWeight float64, k int, fractions []float64) ([]float64, error) {
	t := make([]float64, k)
	if fractions == nil {
		for b := range t {
			t[b] = totalWeight / float64(k)
		}
		return t, nil
	}
	sum, err := CheckFractions(fractions, k)
	if err != nil {
		return nil, err
	}
	for b := range t {
		t[b] = totalWeight * fractions[b] / sum
	}
	return t, nil
}

// MaxLoadRatio returns max_b weights[b]/targets[b] over the blocks with
// a positive target (0 when there is none); balance requires this to be
// at most 1+ε.
func MaxLoadRatio(weights, targets []float64) float64 {
	worst := 0.0
	for b, w := range weights {
		if targets[b] <= 0 {
			continue
		}
		if r := w / targets[b]; r > worst {
			worst = r
		}
	}
	return worst
}
