// SoA pipeline of the distributed sample sort.
//
// The ingest pipeline (paper §4.1, Algorithm 2 lines 4–6) is the one
// place where every input point crosses the wire. The records travel as
// flat columns — keys, ids, weights, and one []float64 per *actual*
// spatial dimension — so that:
//
//   - the local sort is an LSD radix over the uint64 key (radix.go);
//   - the received runs, each already sorted, are p-way merged instead
//     of re-sorted;
//   - the all-to-all moves flat buffers (mpi.AlltoallCols) whose traffic
//     statistics match the real wire size — a 2D point pays for no
//     padded third coordinate.
//
// The differential tests in cols_test.go pin the global (Key, ID) order
// and the balanced per-rank chunks to a sequential oracle across rank
// counts and dimensions.
package dsort

import (
	"sort"

	"geographer/internal/mpi"
)

// Cols is the SoA record batch travelling through the sort: parallel
// columns indexed by point. Only the Dim leading coordinate columns are
// allocated; a 2D batch has no Z column at all.
type Cols struct {
	Dim  int
	Keys []uint64
	IDs  []int64
	W    []float64
	C    [][]float64 // Dim coordinate columns
}

// NewCols allocates a batch of n zero records in dim dimensions.
func NewCols(dim, n int) *Cols {
	c := &Cols{
		Dim:  dim,
		Keys: make([]uint64, n),
		IDs:  make([]int64, n),
		W:    make([]float64, n),
		C:    make([][]float64, dim),
	}
	for d := 0; d < dim; d++ {
		c.C[d] = make([]float64, n)
	}
	return c
}

// Len returns the number of records.
func (c *Cols) Len() int { return len(c.Keys) }

// WireBytes returns the modeled per-record wire size of the SoA
// exchange: key + id + weight + dim coordinates. This replaces the old
// itemBytes constant, which hardcoded three coordinates and overstated
// the communication volume of 2D workloads by 8 bytes per point.
func WireBytes(dim int) int64 { return 8 + 8 + 8 + 8*int64(dim) }

// SortColsLocal sorts the batch in place by (Key, ID): radix-sort a
// permutation, then gather every column through it once.
func SortColsLocal(c *Cols) {
	n := c.Len()
	if n < 2 {
		return
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sortPermByKeyID(c.Keys, c.IDs, perm)
	c.permute(perm)
}

// permute reorders every column by perm (out[i] = col[perm[i]]).
func (c *Cols) permute(perm []int32) {
	n := len(perm)
	keys := make([]uint64, n)
	ids := make([]int64, n)
	w := make([]float64, n)
	for i, p := range perm {
		keys[i] = c.Keys[p]
		ids[i] = c.IDs[p]
		w[i] = c.W[p]
	}
	c.Keys, c.IDs, c.W = keys, ids, w
	for d := 0; d < c.Dim; d++ {
		col := make([]float64, n)
		src := c.C[d]
		for i, p := range perm {
			col[i] = src[p]
		}
		c.C[d] = col
	}
}

// exchange performs the SoA all-to-all: all columns (keys, ids,
// weights, Dim coordinates) travel in one collective with shared
// sendCounts, and the accounted bytes are WireBytes(Dim) per off-rank
// record. Returns the received batch (runs concatenated in
// rank order) and the per-source run lengths.
func exchange(c *mpi.Comm, local *Cols, sendCounts []int) (*Cols, []int) {
	f64 := make([][]float64, 1+local.Dim)
	f64[0] = local.W
	for d := 0; d < local.Dim; d++ {
		f64[1+d] = local.C[d]
	}
	keys, ids, recvF, counts := mpi.AlltoallCols(c, local.Keys, local.IDs, f64, sendCounts)
	out := &Cols{Dim: local.Dim, Keys: keys, IDs: ids, W: recvF[0], C: make([][]float64, local.Dim)}
	for d := 0; d < local.Dim; d++ {
		out.C[d] = recvF[1+d]
	}
	return out, counts
}

// SampleSortCols globally sorts the union of all ranks' records by
// (Key, ID) — the ID tiebreak makes the order total and the pipeline
// deterministic — and returns this rank's resulting chunk: rank r's
// chunk precedes rank r+1's in the global order. Chunk sizes are
// approximately balanced; RebalanceCols afterwards makes the balance
// exact (the paper's redistribution step).
func SampleSortCols(c *mpi.Comm, local *Cols) *Cols {
	p := c.Size()
	SortColsLocal(local)
	if p == 1 {
		return local
	}
	n := local.Len()

	// Regular sampling of local keys.
	s := samplesPerRank
	if n < s {
		s = n
	}
	samples := make([]uint64, 0, s)
	for i := 0; i < s; i++ {
		idx := (i*2 + 1) * n / (2 * s)
		samples = append(samples, local.Keys[idx])
	}
	all := mpi.AllgatherFlat(c, samples)
	if len(all) == 0 {
		// Globally empty input: every rank agrees (collective result).
		return local
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// p-1 splitters; bucket b receives keys in (split[b-1], split[b]].
	splitters := make([]uint64, p-1)
	for i := 0; i < p-1; i++ {
		splitters[i] = all[(i+1)*len(all)/p]
	}

	// Contiguous buckets of the sorted local run, as counts.
	sendCounts := make([]int, p)
	begin := 0
	for b := 0; b < p; b++ {
		end := n
		if b < p-1 {
			end = begin + sort.Search(n-begin, func(i int) bool {
				return local.Keys[begin+i] > splitters[b]
			})
		}
		sendCounts[b] = end - begin
		begin = end
	}

	recv, counts := exchange(c, local, sendCounts)
	out := mergeRuns(recv, counts)
	c.AddOps(int64(n) + int64(out.Len())) // sort work proxy
	return out
}

// mergeRuns merges the p sorted runs of a received batch (run r occupies
// the next counts[r] records) into one batch ordered by (Key, ID). A
// binary min-heap over the run heads gives O(n log p); with at most one
// non-empty run the input is returned unchanged.
func mergeRuns(in *Cols, counts []int) *Cols {
	heads := make([]int, 0, len(counts))
	ends := make([]int, 0, len(counts))
	off := 0
	for _, cnt := range counts {
		if cnt > 0 {
			heads = append(heads, off)
			ends = append(ends, off+cnt)
		}
		off += cnt
	}
	if len(heads) <= 1 {
		return in
	}

	keys, ids := in.Keys, in.IDs
	// less orders two record positions by (Key, ID); IDs are globally
	// unique so the order is total.
	less := func(a, b int) bool {
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return ids[a] < ids[b]
	}

	// heap[j] is a run index; ordered by the run's head record.
	heap := make([]int, len(heads))
	for j := range heap {
		heap[j] = j
	}
	siftDown := func(j int) {
		for {
			l, r := 2*j+1, 2*j+2
			m := j
			if l < len(heap) && less(heads[heap[l]], heads[heap[m]]) {
				m = l
			}
			if r < len(heap) && less(heads[heap[r]], heads[heap[m]]) {
				m = r
			}
			if m == j {
				return
			}
			heap[j], heap[m] = heap[m], heap[j]
			j = m
		}
	}
	for j := len(heap)/2 - 1; j >= 0; j-- {
		siftDown(j)
	}

	out := NewCols(in.Dim, in.Len())
	for i := 0; i < out.Len(); i++ {
		r := heap[0]
		h := heads[r]
		out.Keys[i] = keys[h]
		out.IDs[i] = ids[h]
		out.W[i] = in.W[h]
		for d := 0; d < in.Dim; d++ {
			out.C[d][i] = in.C[d][h]
		}
		heads[r]++
		if heads[r] == ends[r] {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			siftDown(0)
		}
	}
	return out
}

// RebalanceCols redistributes globally sorted chunks so every rank holds
// an exact balanced slice of the global order — rank r gets global
// positions [⌈r·n/p⌉, ⌈(r+1)·n/p⌉) (Algorithm 2 line 6). The received
// runs arrive in rank order and the cuts are order-preserving, so the
// flat exchange output needs no merge at all.
func RebalanceCols(c *mpi.Comm, local *Cols) *Cols {
	p := c.Size()
	if p == 1 {
		return local
	}
	n := mpi.ReduceScalarSum(c, int64(local.Len()))
	if n == 0 {
		return local
	}
	start := mpi.ExscanSum(c, int64(local.Len()))

	// Global position g belongs to rank g*p/n (balanced cuts).
	sendCounts := make([]int, p)
	i := 0
	for i < local.Len() {
		g := start + int64(i)
		dst := int(g * int64(p) / n)
		if dst > p-1 {
			dst = p - 1
		}
		// End of dst's range: first g' with g'*p/n > dst.
		endG := (int64(dst+1)*n + int64(p) - 1) / int64(p)
		j := i + int(endG-g)
		if j > local.Len() {
			j = local.Len()
		}
		sendCounts[dst] = j - i
		i = j
	}
	out, _ := exchange(c, local, sendCounts)
	return out
}
