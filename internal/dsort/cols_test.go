package dsort

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"geographer/internal/mpi"
)

// colsEqual compares two batches record-by-record, bit-exact.
func colsEqual(t *testing.T, tag string, got, want *Cols) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d records, want %d", tag, got.Len(), want.Len())
	}
	for i := range want.Keys {
		same := got.Keys[i] == want.Keys[i] && got.IDs[i] == want.IDs[i] && got.W[i] == want.W[i]
		for d := range want.C {
			same = same && got.C[d][i] == want.C[d][i]
		}
		if !same {
			t.Fatalf("%s: record %d = {%x %d %v}, want {%x %d %v}",
				tag, i, got.Keys[i], got.IDs[i], got.W[i], want.Keys[i], want.IDs[i], want.W[i])
		}
	}
}

// sortedCut is the sequential oracle of the distributed pipeline: all
// records in one batch, sorted by (Key, ID) with sort.Slice, and rank
// r's balanced cut of the result — global positions [⌈r·n/p⌉,
// ⌈(r+1)·n/p⌉), the cut RebalanceCols makes.
func sortedCut(all *Cols, r, p int) *Cols {
	order := make([]int, all.Len())
	for i := range order {
		order[i] = i
	}
	keys, ids := all.Keys, all.IDs
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return keys[i] < keys[j] || keys[i] == keys[j] && ids[i] < ids[j]
	})
	n := len(order)
	order = order[(r*n+p-1)/p : ((r+1)*n+p-1)/p]
	out := NewCols(all.Dim, len(order))
	for i, src := range order {
		out.Keys[i], out.IDs[i], out.W[i] = keys[src], ids[src], all.W[src]
		for d := range out.C {
			out.C[d][i] = all.C[d][src]
		}
	}
	return out
}

// concatCols joins batches in order.
func concatCols(dim int, parts []*Cols) *Cols {
	all := NewCols(dim, 0)
	for _, c := range parts {
		all.Keys = append(all.Keys, c.Keys...)
		all.IDs = append(all.IDs, c.IDs...)
		all.W = append(all.W, c.W...)
		for d := range all.C {
			all.C[d] = append(all.C[d], c.C[d]...)
		}
	}
	return all
}

// isGloballySortedCols verifies (collectively) that the distributed
// sequence is sorted by (Key, ID): each local run is sorted and the
// boundary pairs between consecutive non-empty ranks are ordered.
func isGloballySortedCols(c *mpi.Comm, local *Cols) bool {
	less := func(k1 uint64, i1 int64, k2 uint64, i2 int64) bool {
		return k1 < k2 || k1 == k2 && i1 < i2
	}
	ok := true
	n := local.Len()
	for i := 1; i < n; i++ {
		ok = ok && !less(local.Keys[i], local.IDs[i], local.Keys[i-1], local.IDs[i-1])
	}
	// [first, last] of each non-empty rank, in rank order.
	var ends []uint64
	var endIDs []int64
	if n > 0 {
		ends, endIDs = []uint64{local.Keys[0], local.Keys[n-1]}, []int64{local.IDs[0], local.IDs[n-1]}
	}
	ends, endIDs = mpi.AllgatherFlat(c, ends), mpi.AllgatherFlat(c, endIDs)
	for j := 2; j < len(ends); j += 2 {
		ok = ok && !less(ends[j], endIDs[j], ends[j-1], endIDs[j-1])
	}
	bad := 0
	if !ok {
		bad = 1
	}
	return mpi.ReduceScalarMax(c, bad) == 0
}

// TestSortColsLocalMatchesSortLocal pins the radix sort to the
// sequential oracle, including the ID tiebreak under heavy key
// collisions and shuffled (non-ascending) ID orders.
func TestSortColsLocalMatchesSortLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 2, 7, 100, 5000} {
		for _, collide := range []bool{false, true} {
			cols := makeCols(0, n, 99, 2)
			if collide {
				for i := range cols.Keys {
					cols.Keys[i] %= 5 // almost every key collides
				}
			}
			rng.Shuffle(n, func(i, j int) {
				cols.Keys[i], cols.Keys[j] = cols.Keys[j], cols.Keys[i]
				cols.IDs[i], cols.IDs[j] = cols.IDs[j], cols.IDs[i]
			})
			want := sortedCut(cols, 0, 1)
			SortColsLocal(cols)
			colsEqual(t, "local sort", cols, want)
		}
	}
}

// TestSortColsLocalNegativeIDs covers the int64 sign handling of the
// ID radix passes.
func TestSortColsLocalNegativeIDs(t *testing.T) {
	cols := &Cols{
		Dim:  2,
		Keys: []uint64{7, 7, 7, 1, 7},
		IDs:  []int64{5, -3, 0, 9, -1 << 62},
		W:    []float64{1, 2, 3, 4, 5},
		C:    [][]float64{{1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}},
	}
	want := sortedCut(cols, 0, 1)
	SortColsLocal(cols)
	colsEqual(t, "negative ids", cols, want)
}

// TestSortPermByKeysStable checks the permutation radix sort keeps equal
// keys in incoming perm order, the stability sortPermByKeyID relies on
// to fold the ID tiebreak into its key passes.
func TestSortPermByKeysStable(t *testing.T) {
	keys := []uint64{3, 1, 3, 1, 3}
	perm := []int32{0, 1, 2, 3, 4}
	radixPerm(keys, perm, make([]int32, len(perm)))
	want := []int32{1, 3, 0, 2, 4}
	for i := range perm {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

// collectCols runs an SPMD function returning one batch per rank.
func collectCols(t *testing.T, p int, run func(c *mpi.Comm) *Cols) []*Cols {
	t.Helper()
	w := mpi.NewWorld(p)
	results := make([]*Cols, p)
	var mu sync.Mutex
	if err := w.Run(func(c *mpi.Comm) {
		out := run(c)
		mu.Lock()
		results[c.Rank()] = out
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestColsPipelineMatchesItems is the ingest differential test: for both
// dimensions and several rank counts, SampleSortCols must produce the
// oracle's global (Key, ID) order across the ranks' chunks, and
// RebalanceCols after it exactly the oracle's balanced chunk on every
// rank — same records, same payloads.
func TestColsPipelineMatchesItems(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 3, 8} {
			for _, nPer := range []int{0, 1, 100, 1000} {
				inputs := make([]*Cols, p)
				for r := range inputs {
					inputs[r] = makeCols(r, nPer, 42, dim)
				}
				all := concatCols(dim, inputs)

				gotSorted := collectCols(t, p, func(c *mpi.Comm) *Cols {
					return SampleSortCols(c, makeCols(c.Rank(), nPer, 42, dim))
				})
				gotBalanced := collectCols(t, p, func(c *mpi.Comm) *Cols {
					sorted := SampleSortCols(c, makeCols(c.Rank(), nPer, 42, dim))
					return RebalanceCols(c, sorted)
				})
				colsEqual(t, "sorted", concatCols(dim, gotSorted), sortedCut(all, 0, 1))
				for r := 0; r < p; r++ {
					colsEqual(t, "balanced", gotBalanced[r], sortedCut(all, r, p))
				}
			}
		}
	}
}

// TestColsPipelineSkewedKeys repeats the worst-case splitter scenario on
// the SoA path.
func TestColsPipelineSkewedKeys(t *testing.T) {
	p := 4
	results := collectCols(t, p, func(c *mpi.Comm) *Cols {
		local := NewCols(2, 500)
		for i := 0; i < 500; i++ {
			local.Keys[i] = uint64(i % 3)
			local.IDs[i] = int64(c.Rank()*1000 + i)
		}
		out := SampleSortCols(c, local)
		if !isGloballySortedCols(c, out) {
			t.Error("skewed: not globally sorted")
		}
		return out
	})
	total := 0
	for _, chunk := range results {
		total += chunk.Len()
	}
	if total != p*500 {
		t.Fatalf("lost records: %d", total)
	}
}

// TestExchangeWireBytes2D pins the traffic-accounting fix: a 2D
// redistribution must move (and account) 40 bytes per off-rank record —
// key, id, weight, two coordinates — not the 48 bytes of a padded
// third coordinate.
func TestExchangeWireBytes2D(t *testing.T) {
	const n = 10
	w := mpi.NewWorld(2)
	if err := w.Run(func(c *mpi.Comm) {
		var local *Cols
		if c.Rank() == 0 {
			local = makeCols(0, n, 7, 2)
			SortColsLocal(local)
		} else {
			local = NewCols(2, 0)
		}
		RebalanceCols(c, local)
	}); err != nil {
		t.Fatal(err)
	}
	// Rank 0 holds all n records and sends n/2 to rank 1, plus two scalar
	// collectives (ReduceScalarSum + ExscanSum, 8 bytes each).
	want := (n / 2) * int(WireBytes(2))
	got := int(w.Stats()[0].CollectiveBytes) - 16
	if got != want {
		t.Fatalf("2D exchange accounted %d payload bytes, want %d (WireBytes(2)=%d)",
			got, want, WireBytes(2))
	}
}

// BenchmarkRadixVsSortSlice compares the radix local sort with the
// oracle's sort.Slice on one rank's typical load (20k records, random
// 48-bit keys).
func BenchmarkRadixVsSortSlice(b *testing.B) {
	const n = 20000
	base := makeCols(0, n, 42, 3)
	b.Run("sortslice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortedCut(base, 0, 1)
		}
	})
	b.Run("radix", func(b *testing.B) {
		scratch := makeCols(0, n, 42, 3)
		for i := 0; i < b.N; i++ {
			copy(scratch.Keys, base.Keys)
			copy(scratch.IDs, base.IDs)
			SortColsLocal(scratch)
		}
	})
}
