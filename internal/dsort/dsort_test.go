package dsort

import (
	"math/rand"
	"testing"

	"geographer/internal/mpi"
)

// makeCols builds a deterministic random batch for one rank.
func makeCols(rank, n int, seed int64, dim int) *Cols {
	rng := rand.New(rand.NewSource(seed + int64(rank)*7919))
	c := NewCols(dim, n)
	for i := 0; i < n; i++ {
		c.Keys[i] = rng.Uint64() >> 16 // collisions likely at small sizes: exercises ID tiebreak
		c.IDs[i] = int64(rank*1_000_000 + i)
		c.W[i] = rng.Float64()
		c.C[0][i], c.C[1][i] = rng.Float64(), rng.Float64()
	}
	return c
}

func TestSampleSortGlobalOrder(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, nPer := range []int{0, 1, 100, 1000} {
			results := collectCols(t, p, func(c *mpi.Comm) *Cols {
				out := SampleSortCols(c, makeCols(c.Rank(), nPer, 42, 2))
				if !isGloballySortedCols(c, out) {
					t.Errorf("p=%d n=%d: not globally sorted", p, nPer)
				}
				return out
			})
			// Multiset and payload preservation: every input record
			// arrives exactly once, bit-exact.
			seen := make(map[int64][3]float64)
			for _, chunk := range results {
				for i, id := range chunk.IDs {
					if _, dup := seen[id]; dup {
						t.Fatalf("p=%d: duplicate id %d", p, id)
					}
					seen[id] = [3]float64{chunk.W[i], chunk.C[0][i], chunk.C[1][i]}
				}
			}
			if len(seen) != p*nPer {
				t.Fatalf("p=%d nPer=%d: %d records after sort", p, nPer, len(seen))
			}
			for r := 0; r < p; r++ {
				in := makeCols(r, nPer, 42, 2)
				for i, id := range in.IDs {
					if want := [3]float64{in.W[i], in.C[0][i], in.C[1][i]}; seen[id] != want {
						t.Fatalf("p=%d: record %d corrupted: got %v want %v", p, id, seen[id], want)
					}
				}
			}
		}
	}
}

func TestSampleSortSkewedKeys(t *testing.T) {
	// All ranks contribute nearly identical keys — the worst case for
	// splitter selection; after the rebalance the order must still hold.
	p := 4
	results := collectCols(t, p, func(c *mpi.Comm) *Cols {
		local := NewCols(3, 500)
		for i := range local.Keys {
			local.Keys[i] = uint64(i % 3)
			local.IDs[i] = int64(c.Rank()*1000 + i)
		}
		out := RebalanceCols(c, SampleSortCols(c, local))
		if !isGloballySortedCols(c, out) {
			t.Error("skewed: not globally sorted")
		}
		return out
	})
	for r, chunk := range results {
		if chunk.Len() != 500 {
			t.Fatalf("rank %d: %d records after rebalance, want 500", r, chunk.Len())
		}
	}
}

func TestRebalanceExact(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7} {
		// Heavily imbalanced input: rank r has r*100 records.
		results := collectCols(t, p, func(c *mpi.Comm) *Cols {
			bal := RebalanceCols(c, SampleSortCols(c, makeCols(c.Rank(), c.Rank()*100, 7, 2)))
			if !isGloballySortedCols(c, bal) {
				t.Errorf("p=%d: rebalanced sequence lost order", p)
			}
			return bal
		})
		n := 0
		for _, chunk := range results {
			n += chunk.Len()
		}
		for r, chunk := range results {
			if want := ((r+1)*n+p-1)/p - (r*n+p-1)/p; chunk.Len() != want {
				t.Errorf("p=%d rank %d: %d records, want %d of %d", p, r, chunk.Len(), want, n)
			}
		}
	}
}

func TestRebalanceEmptyWorld(t *testing.T) {
	collectCols(t, 3, func(c *mpi.Comm) *Cols {
		out := RebalanceCols(c, NewCols(2, 0))
		if out.Len() != 0 {
			t.Error("empty rebalance should stay empty")
		}
		return out
	})
}

func TestIsGloballySortedDetectsViolations(t *testing.T) {
	batch := func(keys ...uint64) *Cols {
		c := NewCols(2, len(keys))
		copy(c.Keys, keys)
		return c
	}
	w := mpi.NewWorld(2)
	if err := w.Run(func(c *mpi.Comm) {
		// Rank 0 holds larger keys than rank 1: boundary violation.
		local := batch(100)
		if c.Rank() == 1 {
			local = batch(50)
		}
		if isGloballySortedCols(c, local) {
			t.Error("boundary violation not detected")
		}
		// Local violation.
		if isGloballySortedCols(c, batch(9, 3)) {
			t.Error("local violation not detected")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLessTotalOrder pins the (Key, ID) order the local sort produces:
// keys first, IDs break ties.
func TestLessTotalOrder(t *testing.T) {
	c := &Cols{
		Dim:  2,
		Keys: []uint64{2, 1, 1},
		IDs:  []int64{0, 6, 5},
		W:    []float64{0, 0, 0},
		C:    [][]float64{{0, 0, 0}, {0, 0, 0}},
	}
	SortColsLocal(c)
	for i, want := range [][2]int64{{1, 5}, {1, 6}, {2, 0}} {
		if got := [2]int64{int64(c.Keys[i]), c.IDs[i]}; got != want {
			t.Fatalf("record %d = %v, want %v", i, got, want)
		}
	}
}

func BenchmarkSampleSort(b *testing.B) {
	p := 4
	const nPer = 20000
	for _, dim := range []int{2, 3} {
		name := "cols2d"
		if dim == 3 {
			name = "cols3d"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(p)
				if err := w.Run(func(c *mpi.Comm) {
					local := makeCols(c.Rank(), nPer, 42, dim)
					SampleSortCols(c, local)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
