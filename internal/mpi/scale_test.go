package mpi

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// ---------------------------------------------------------------------
// High-rank-count stress: the collective contracts must hold unchanged
// at the thousands-of-ranks scale the soak harness runs at, not just at
// the single-digit worldSizes of the unit tests.

func stressRanks(t *testing.T) []int {
	ps := []int{1024}
	if !testing.Short() {
		ps = append(ps, 4096)
	}
	return ps
}

func TestHighRankScalarCollectives(t *testing.T) {
	for _, p := range stressRanks(t) {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			r := int64(c.Rank())
			if got, want := ExscanSum(c, r+1), r*(r+1)/2; got != want {
				t.Errorf("p=%d rank %d: exscan = %d, want %d", p, r, got, want)
			}
			if got, want := ReduceScalarSum(c, r+1), int64(p)*int64(p+1)/2; got != want {
				t.Errorf("p=%d rank %d: sum = %d, want %d", p, r, got, want)
			}
			if got, want := ReduceScalarMax(c, float64(r)), float64(p-1); got != want {
				t.Errorf("p=%d rank %d: max = %g, want %g", p, r, got, want)
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestHighRankAllreduceInto(t *testing.T) {
	for _, p := range stressRanks(t) {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			const n = 8
			v := make([]int64, n)
			for j := range v {
				v[j] = int64(c.Rank() + j)
			}
			// In place: v doubles as input and output.
			AllreduceSumInto(c, v, v)
			for j := range v {
				want := int64(p)*int64(p-1)/2 + int64(p)*int64(j)
				if v[j] != want {
					t.Errorf("p=%d rank %d: sum[%d] = %d, want %d", p, c.Rank(), j, v[j], want)
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestHighRankGatherAndAlltoall(t *testing.T) {
	for _, p := range stressRanks(t) {
		if p > 1024 {
			continue // quadratic aggregate payload; 1024 is plenty here
		}
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			// Variable-length gather: rank r contributes r%3 elements.
			in := make([]int32, c.Rank()%3)
			for i := range in {
				in[i] = int32(c.Rank()*10 + i)
			}
			out := make([]int32, 0, p)
			out = AllgatherFlatInto(c, in, out)
			off := 0
			for r := 0; r < p; r++ {
				for i := 0; i < r%3; i++ {
					if out[off] != int32(r*10+i) {
						t.Fatalf("p=%d rank %d: gather[%d] = %d", p, c.Rank(), off, out[off])
					}
					off++
				}
			}
			if off != len(out) {
				t.Fatalf("p=%d rank %d: gather len %d, want %d", p, c.Rank(), len(out), off)
			}
			// Sparse all-to-all: one element to each ring neighbour.
			counts := make([]int, p)
			next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
			counts[next], counts[prev] = 1, 1
			send := make([]int, 0, 2)
			for dst := 0; dst < p; dst++ {
				for j := 0; j < counts[dst]; j++ {
					send = append(send, c.Rank()*10+dst)
				}
			}
			recv, recvCounts := AlltoallFlat(c, send, counts)
			if p == 1 {
				return // self-loop degenerates; counts logic covers p>1
			}
			if recvCounts[next] != 1 || recvCounts[prev] != 1 {
				t.Fatalf("p=%d rank %d: recvCounts next=%d prev=%d", p, c.Rank(), recvCounts[next], recvCounts[prev])
			}
			for i, src := range []int{prev, next} {
				_ = i
				want := src*10 + c.Rank()
				found := false
				for _, v := range recv {
					if v == want {
						found = true
					}
				}
				if !found {
					t.Fatalf("p=%d rank %d: missing element from %d", p, c.Rank(), src)
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestAllreduceSumSparse checks the windowed reduction against a dense
// AllreduceSum reference, with overlapping windows, empty segments, and
// in-place (seg aliases out) updates.
func TestAllreduceSumSparse(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 64} {
		w := NewWorld(p)
		n := 4*p + 9
		err := w.Run(func(c *Comm) {
			rng := rand.New(rand.NewSource(int64(c.Rank()*7 + 1)))
			// Overlapping windows: rank r covers [2r, 2r+5); rank 1 (if
			// present) contributes an empty segment.
			off, segLen := 2*c.Rank(), 5
			if c.Rank() == 1 {
				segLen = 0
			}
			dense := make([]float64, n)
			out := make([]float64, n)
			seg := out[off : off+segLen] // in place: seg aliases out
			for i := range seg {
				v := rng.Float64()
				seg[i] = v
				dense[off+i] = v
			}
			want := AllreduceSum(c, dense)
			lo, length := AllreduceSumSparse(c, n, off, seg, out)
			for i := 0; i < n; i++ {
				got := 0.0
				if i >= lo && i < lo+length {
					got = out[i]
				}
				if got != want[i] {
					t.Errorf("p=%d rank %d: sparse[%d] = %g, want %g", p, c.Rank(), i, got, want[i])
				}
			}
			// The published window must cover every nonzero of the result.
			for i, v := range want {
				if v != 0 && (i < lo || i >= lo+length) {
					t.Errorf("p=%d rank %d: nonzero %d outside window [%d,%d)", p, c.Rank(), i, lo, lo+length)
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceSumSparseHighP(t *testing.T) {
	for _, p := range stressRanks(t) {
		w := NewWorld(p)
		n := 2*p + 2 // last window is [2(p-1), 2(p-1)+4)
		err := w.Run(func(c *Comm) {
			out := make([]float64, n)
			seg := []float64{1, 1, 1, 1}
			off := c.Rank() * 2 // window [2r, 2r+4): overlaps both neighbours
			copy(out[off:], seg)
			lo, length := AllreduceSumSparse(c, n, off, out[off:off+4], out)
			for i := lo; i < lo+length; i++ {
				// Element i is covered by ranks r with 2r ≤ i < 2r+4.
				want := 0.0
				for r := (i - 3 + 1) / 2; r <= i/2; r++ {
					if r >= 0 && r < p && i >= 2*r && i < 2*r+4 {
						want++
					}
				}
				if out[i] != want {
					t.Fatalf("p=%d rank %d: sparse[%d] = %g, want %g", p, c.Rank(), i, out[i], want)
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// ---------------------------------------------------------------------
// Tree vs central barrier: identical results, bit for bit, on the
// rank-order float folds; many mixed episodes for the race detector.
// The central barrier is the tree's one-leaf form.

// oneLeafBarrier is the central reference barrier: a tree with a single
// leaf of fan-in p, so every rank arrives at the same node.
func oneLeafBarrier(p int) *treeBarrier {
	return newTreeBarrier(p, uint(bits.Len(uint(p-1))))
}

// centralWorld is a World whose barrier is the one-leaf tree.
func centralWorld(p int) *World {
	w := NewWorld(p)
	w.bar = oneLeafBarrier(p)
	return w
}

// TestTreeBarrierShape pins the default tree's shape: ⌈p/g⌉ leaves with
// g the smallest power of two whose square reaches p, a ragged last
// leaf, and a root that counts leaves. The one-leaf form puts every
// rank on one leaf under a root that expects one arrival.
func TestTreeBarrierShape(t *testing.T) {
	check := func(name string, b *treeBarrier, p, leaves int) {
		t.Helper()
		if len(b.leaves) != leaves {
			t.Fatalf("%s p=%d: %d leaves, want %d", name, p, len(b.leaves), leaves)
		}
		sum := 0
		for i := range b.leaves {
			sum += b.leaves[i].expect
		}
		if sum != p {
			t.Errorf("%s p=%d: leaf expectations sum to %d, want %d", name, p, sum, p)
		}
		if b.root.expect != leaves {
			t.Errorf("%s p=%d: root expects %d, want %d", name, p, b.root.expect, leaves)
		}
		for r := 0; r < p; r++ {
			if l := r >> b.shift; l >= leaves {
				t.Fatalf("%s p=%d: rank %d maps to leaf %d of %d", name, p, r, l, leaves)
			}
		}
	}
	for _, p := range []int{1, 2, 3, 4, 5, 16, 17, 64, 1000, 1024, 4096} {
		g := 1
		for g*g < p {
			g *= 2
		}
		b := NewWorld(p).bar
		check("tree", b, p, (p+g-1)/g)
		if p <= 2 && len(b.leaves) != 1 {
			t.Errorf("p=%d: %d leaves, want 1", p, len(b.leaves))
		}
		check("one-leaf", oneLeafBarrier(p), p, 1)
	}
}

func TestTreeVsCentralBitIdentical(t *testing.T) {
	for _, p := range []int{3, 37, 64} {
		treeVsCentral(t, p)
	}
}

func treeVsCentral(t *testing.T, p int) {
	const n = 33
	run := func(w *World) ([]float64, []float64) {
		sums := make([]float64, n)
		scans := make([]float64, p)
		if err := w.Run(func(c *Comm) {
			rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
			in := make([]float64, n)
			for i := range in {
				in[i] = (rng.Float64() - 0.5) * 1e9
			}
			out := AllreduceSum(c, in)
			if c.Rank() == 0 {
				copy(sums, out)
			}
			scans[c.Rank()] = ExscanSum(c, rng.Float64()*1e-7)
		}); err != nil {
			t.Fatal(err)
		}
		return sums, scans
	}
	treeSums, treeScans := run(NewWorld(p))
	centSums, centScans := run(centralWorld(p))
	for i := range treeSums {
		if treeSums[i] != centSums[i] {
			t.Errorf("p=%d sum[%d]: tree %x != central %x", p, i, treeSums[i], centSums[i])
		}
	}
	for i := range treeScans {
		if treeScans[i] != centScans[i] {
			t.Errorf("p=%d scan[%d]: tree %x != central %x", p, i, treeScans[i], centScans[i])
		}
	}
}

func TestBarrierManyEpisodes(t *testing.T) {
	// An odd, non-square world size exercises the ragged last group of
	// the tree; hundreds of episodes catch cross-episode races (run
	// under -race in CI). The p=2 arm runs them on the spin path.
	for _, p := range []int{37, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			if p == 2 {
				spinProcs(t, p)
			}
			barrierEpisodes(t, p)
		})
	}
}

func barrierEpisodes(t *testing.T, p int) {
	const episodes = 300
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		v := make([]int64, 3)
		for e := 0; e < episodes; e++ {
			c.Barrier()
			for j := range v {
				v[j] = int64(c.Rank() + e + j)
			}
			AllreduceSumInto(c, v, v)
			for j := range v {
				want := int64(p)*int64(p-1)/2 + int64(p)*int64(e+j)
				if v[j] != want {
					t.Errorf("episode %d rank %d: sum[%d] = %d, want %d", e, c.Rank(), j, v[j], want)
					return
				}
			}
			if got := ReduceScalarMax(c, int64(c.Rank())); got != int64(p-1) {
				t.Errorf("episode %d rank %d: max = %d", e, c.Rank(), got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Spin-then-park waiting: the tree barrier's waiters spin before they
// park exactly when the ranks of every running world fit in GOMAXPROCS.

// spinProcs raises GOMAXPROCS to p for the rest of the test, so a world
// of p ranks built after it takes the spin path; cleanup restores it.
func spinProcs(t *testing.T, p int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < p {
		runtime.GOMAXPROCS(p)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestTreeBarrierSpinDecision reads the decision from inside rank 0 of
// a running world of p ranks built under GOMAXPROCS=procs, optionally
// itself run from inside a world of outer ranks — the case of a serving
// registry whose tenants' worlds run concurrently.
func TestTreeBarrierSpinDecision(t *testing.T) {
	for _, tc := range []struct {
		procs, p, outer int
		spin            bool
	}{
		{1, 1, 0, false},
		{1, 2, 0, false},
		{2, 2, 0, true},
		{2, 3, 0, false},
		{2, 1024, 0, false},
		{2, 2, 1, false}, // 3 live ranks on 2 Ps
		{2, 2, 2, false},
		{4, 2, 2, true}, // 4 live ranks on 4 Ps
		{4, 2, 3, false},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		w := NewWorld(tc.p)
		var got bool
		run := func() error {
			return w.Run(func(c *Comm) {
				if c.Rank() == 0 {
					got = w.bar.spinning()
				}
			})
		}
		var err error
		if tc.outer > 0 {
			err = NewWorld(tc.outer).Run(func(c *Comm) {
				if c.Rank() == 0 {
					if e := run(); e != nil {
						panic(e)
					}
				}
			})
		} else {
			err = run()
		}
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.spin {
			t.Errorf("GOMAXPROCS=%d p=%d outer=%d: spinning = %v, want %v",
				tc.procs, tc.p, tc.outer, got, tc.spin)
		}
	}
	if n := liveRanks.Load(); n != 0 {
		t.Errorf("liveRanks = %d after every world finished", n)
	}
}

// ---------------------------------------------------------------------
// Zero-alloc contract: the warm-path collectives must not allocate per
// call in steady state. Measured, not asserted: a full Run of many
// mixed collectives should cost only the Run's own goroutine spawns.
// The p=2 arm runs with the tree's waiters spinning.

func TestWarmCollectivesZeroAlloc(t *testing.T) {
	for _, p := range []int{8, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			if p == 2 {
				spinProcs(t, p)
			}
			warmCollectivesAllocs(t, p)
		})
	}
}

func warmCollectivesAllocs(t *testing.T, p int) {
	const iters = 200
	w := NewWorld(p)
	if p == 2 {
		if err := w.Run(func(c *Comm) {
			if !w.bar.spinning() {
				panic("p=2 world does not spin under GOMAXPROCS=2")
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	n := 64
	vin := make([][]float64, p)
	vout := make([][]float64, p)
	sout := make([][]float64, p)
	for r := 0; r < p; r++ {
		vin[r] = make([]float64, 16)
		vout[r] = make([]float64, 16)
		sout[r] = make([]float64, n)
	}
	body := func() {
		if err := w.Run(func(c *Comm) {
			r := c.Rank()
			for i := 0; i < iters; i++ {
				AllreduceSumInto(c, vin[r], vout[r])
				AllreduceMinInto(c, vin[r], vout[r])
				off := (r * 7) % (n - 8)
				AllreduceSumSparse(c, n, off, sout[r][off:off+8], sout[r])
				ExscanSum(c, int64(r))
				ReduceScalarSum(c, float64(r))
				ReduceScalarMax(c, int64(r))
				c.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	body() // warm up: grow the world's rendezvous buffers once
	allocs := testing.AllocsPerRun(3, body)
	// Each run issues iters·7·p collective calls (≈ 11k at p=8, 2.8k at
	// p=2); a single per-call allocation anywhere would add thousands.
	// The budget covers only Run's goroutine spawns and test scaffolding.
	if allocs > 500 {
		t.Errorf("steady-state run allocated %.0f objects; warm collectives must not allocate per call", allocs)
	}
}

// ---------------------------------------------------------------------
// Benchmarks: tree vs central barrier at increasing rank counts. The
// tree's advantage is lock convoying, so it grows with p (and with real
// core counts; CI hosts with one core understate it).

func benchWorld(p int, central bool) *World {
	if central {
		return centralWorld(p)
	}
	return NewWorld(p)
}

// BenchmarkBarrier times one crossing (ns/op) with ranks arriving
// together, and in the skewed arms the crossing the balance loop pays:
// before crossing i, rank i mod p busy-works for 20 µs while the others
// wait, so every rank takes its turn as the waiter. There
// excess-ns/crossing is the cost beyond the skew: a parked waiter pays
// an OS thread wake-up on release, which delays its next arrival and so
// the next crossing; a spinning one does not. At p=2 the tree's waiters
// spin unless the benchmark runs under -cpu 1. The skewed arms run
// first: early in a process a fifth of the spins run out their budget
// (DESIGN.md, "Scaling invariants").
func BenchmarkBarrier(b *testing.B) {
	for _, arm := range []struct {
		name string
		skew time.Duration
		ps   []int
	}{
		{"skewed/", 20 * time.Microsecond, []int{2, 8}},
		{"", 0, []int{2, 8, 256, 1024, 4096}},
	} {
		for _, p := range arm.ps {
			for _, impl := range []string{"tree", "central"} {
				b.Run(fmt.Sprintf("%s/%sp=%d", impl, arm.name, p), func(b *testing.B) {
					w := benchWorld(p, impl == "central")
					b.ResetTimer()
					if err := w.Run(func(c *Comm) {
						for i := 0; i < b.N; i++ {
							if arm.skew > 0 && c.Rank() == i%p {
								for start := time.Now(); time.Since(start) < arm.skew; {
								}
							}
							c.Barrier()
						}
					}); err != nil {
						b.Fatal(err)
					}
					if arm.skew > 0 {
						b.ReportMetric(float64(b.Elapsed()-time.Duration(b.N)*arm.skew)/float64(b.N), "excess-ns/crossing")
					}
				})
			}
		}
	}
}

func BenchmarkAllreduceHighP(b *testing.B) {
	for _, p := range []int{1024, 4096} {
		for _, central := range []bool{false, true} {
			name := fmt.Sprintf("tree/p=%d", p)
			if central {
				name = fmt.Sprintf("central/p=%d", p)
			}
			b.Run(name, func(b *testing.B) {
				w := benchWorld(p, central)
				bufs := make([][]float64, p)
				for r := range bufs {
					bufs[r] = make([]float64, 64)
				}
				b.ResetTimer()
				if err := w.Run(func(c *Comm) {
					v := bufs[c.Rank()]
					for i := 0; i < b.N; i++ {
						AllreduceSumInto(c, v, v)
					}
				}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
