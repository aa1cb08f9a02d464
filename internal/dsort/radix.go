// LSD radix sort for the ingest pipeline.
//
// The local sort inside SampleSortCols orders (Key, ID) pairs. A
// comparison sort through sort.Slice pays reflection on every swap and a
// closure call on every compare; an LSD radix over the uint64 key is a
// handful of counting-sort passes with pure array traffic. The sort is
// carried on a permutation (the SoA columns are gathered once at the
// end), passes whose byte is globally constant are skipped (a 62-bit
// Hilbert key never spends more than 8, and locally clustered keys far
// fewer), and the ID tiebreak is folded in by LSD stability: ID passes
// run before key passes, so equal keys stay in ascending-ID order. In
// the common case — IDs already ascending in input order, which every
// caller that fills columns from a Scatter-produced Local satisfies —
// the ID passes are skipped entirely after one O(n) check.
package dsort

// signFlip converts int64 to order-preserving uint64.
const signFlip = uint64(1) << 63

// radixPerm stably sorts perm (indices into vals) so that vals[perm[i]]
// is ascending: an 8-pass LSD counting sort whose stability keeps equal
// values in incoming perm order, the property sortPermByKeyID chains its
// ID and key passes on. tmp must have len(perm); the result always lands
// back in perm.
func radixPerm(vals []uint64, perm, tmp []int32) {
	n := int32(len(perm))
	var hist [8][256]int32
	for _, pi := range perm {
		v := vals[pi]
		hist[0][v&0xff]++
		hist[1][v>>8&0xff]++
		hist[2][v>>16&0xff]++
		hist[3][v>>24&0xff]++
		hist[4][v>>32&0xff]++
		hist[5][v>>40&0xff]++
		hist[6][v>>48&0xff]++
		hist[7][v>>56&0xff]++
	}
	src, dst := perm, tmp
	for pass := 0; pass < 8; pass++ {
		h := &hist[pass]
		// A globally constant byte makes the pass an identity: skip it.
		constant := false
		for b := 0; b < 256; b++ {
			if h[b] != 0 {
				constant = h[b] == n
				break
			}
		}
		if constant {
			continue
		}
		// Exclusive prefix sums turn counts into write offsets.
		total := int32(0)
		for b := 0; b < 256; b++ {
			c := h[b]
			h[b] = total
			total += c
		}
		shift := uint(8 * pass)
		for _, pi := range src {
			b := vals[pi] >> shift & 0xff
			dst[h[b]] = pi
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}

// sortPermByKeyID sorts perm by (keys, ids) ascending. perm must start as
// the identity (or any ID-consistent order) only if the caller wants the
// documented tiebreak; this function establishes (Key, ID) regardless of
// the incoming perm order.
func sortPermByKeyID(keys []uint64, ids []int64, perm []int32) {
	if len(perm) < 2 {
		return
	}
	tmp := make([]int32, len(perm))
	// LSD: the secondary ID passes run first, then the key passes; key
	// stability then keeps equal keys in ascending-ID order. When ids are
	// already ascending along perm the ID passes are identities — skip.
	ascending := true
	for i := 1; i < len(perm); i++ {
		if ids[perm[i]] < ids[perm[i-1]] {
			ascending = false
			break
		}
	}
	if !ascending {
		u := make([]uint64, len(ids))
		for i, id := range ids {
			u[i] = uint64(id) ^ signFlip // order-preserving for negative IDs
		}
		radixPerm(u, perm, tmp)
	}
	radixPerm(keys, perm, tmp)
}
