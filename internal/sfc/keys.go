// Batch Hilbert key kernels over SoA columns.
//
// The ingest phase (paper §4.1) computes one Hilbert key per input point
// before the distributed sort. Skilling's formulation of the index — clamp
// to a cell, run the bit-serial transpose loop, interleave the axis words —
// spends bits·dim dependent iterations in each of its two loops per point
// (62 for the default 2D order). The kernels below compute the same keys
// from flat coordinate columns with
//
//   - the transpose loop run as a table-driven state machine, four bit
//     positions per lookup in 2D and two in 3D (30 dependent mask
//     iterations become 3 + 7 loads for the default 2D order), and the
//     trailing Gray-flip accumulation collapsed to a suffix-parity computed
//     in five shift/xors, and
//   - the interleave replaced by table-free magic-mask bit spreading
//     (Morton-style: bit j of an axis word moves to bit j·dim in O(log
//     bits) shift/and steps).
//
// All operations are exact integer arithmetic. The tests keep Skilling's
// loop as the oracle: TestKeysColsMatchesKey (and its fuzz target) pin the
// kernels bit-identical to it in every dimension, and
// TestTableIndexMatchesMaskLoop pins the tables to the mask loop they
// replaced.
package sfc

import (
	"geographer/internal/geom"
	"geographer/internal/sched"
)

// spread2 spaces the low 32 bits of v apart: bit j moves to bit 2j.
func spread2(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// spread3 spaces the low 21 bits of v apart: bit j moves to bit 3j.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x001f00000000ffff
	v = (v | v<<16) & 0x001f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// suffixParity returns a word whose bit j is the parity of v's bits
// strictly above j — exactly the Gray-flip accumulator t of Skilling's
// transpose (t ^= q-1 for every set bit q>1 of the last axis).
func suffixParity(v uint32) uint32 {
	t := v >> 1
	t ^= t >> 1
	t ^= t >> 2
	t ^= t >> 4
	t ^= t >> 8
	t ^= t >> 16
	return t
}

// Skilling's transpose loop walks the bit positions from the top and, at
// each one, applies "invert axis 0" or "swap axis 0 with axis i" to every
// lower bit position alike, as decided by the (already transformed) bits
// at the current position. What the lower positions have accumulated is
// therefore one element of the group those generators span, acting on the
// dim-tuple of bits at a position — a signed permutation of the axes: 8
// elements in 2D, 48 in 3D — and the loop is a finite-state transducer:
// (state, raw bits at this position) → (transformed bits, next state).
// axisMap is one such element: output axis i reads input axis perm[i],
// inverted when flip[i] is set.
type axisMap struct {
	perm, flip [3]uint8
}

var identityMap = axisMap{perm: [3]uint8{0, 1, 2}}

// apply transforms one bit tuple (axis i in bit dim-1-i of r, so axis 0
// leads as it does in the key).
func (g axisMap) apply(r uint32, dim int) uint32 {
	var b uint32
	for i := 0; i < dim; i++ {
		b = b<<1 | (r>>uint(dim-1-int(g.perm[i]))&1 ^ uint32(g.flip[i]))
	}
	return b
}

// invert0 returns "invert axis 0" after g, swap0 "swap axes 0 and j"
// after g.
func (g axisMap) invert0() axisMap { g.flip[0] ^= 1; return g }
func (g axisMap) swap0(j int) axisMap {
	g.perm[0], g.perm[j] = g.perm[j], g.perm[0]
	g.flip[0], g.flip[j] = g.flip[j], g.flip[0]
	return g
}

// step is one iteration of the transpose loop at one bit position: the
// transformed tuple, and the state the lower positions continue in (axis
// by axis, a set bit inverts axis 0 below, a clear one swaps it with
// that axis — with itself for axis 0, a no-op).
func (g axisMap) step(r uint32, dim int) (b uint32, next axisMap) {
	b = g.apply(r, dim)
	next = g
	for i := 0; i < dim; i++ {
		if b>>uint(dim-1-i)&1 != 0 {
			next = next.invert0()
		} else if i > 0 {
			next = next.swap0(i)
		}
	}
	return b, next
}

// The transducer tables, built at init by closure from the identity
// (states numbered in order of discovery). An entry packs the transformed
// bits above the next state: hilbert2Bit/hilbert3Bit consume one bit per
// axis (axis 0 leading), hilbert2Nibble four bits per axis (x0 nibble,
// then x1 nibble: 4 KB) and hilbert3Pair two (x0, x1, x2 pairs: 6 KB), the
// chunk's bits of one axis staying together in the output as well. The
// first dimension is the group's order: a larger closure would index past
// it at init, TestTransducerStates rules out a smaller one.
const (
	hilbertStates2D = 8  // the dihedral group of the square
	hilbertStates3D = 48 // the signed permutations of three axes

	stateBits2D = 3
	stateBits3D = 6
)

var (
	hilbert2Bit    [hilbertStates2D][4]uint8
	hilbert2Nibble [hilbertStates2D][256]uint16
	hilbert3Bit    [hilbertStates3D][8]uint16
	hilbert3Pair   [hilbertStates3D][64]uint16
)

// closeStates enumerates the states reachable from the identity.
func closeStates(dim int) []axisMap {
	states := []axisMap{identityMap}
	seen := map[axisMap]bool{identityMap: true}
	for q := 0; q < len(states); q++ {
		for r := uint32(0); r < 1<<uint(dim); r++ {
			if _, next := states[q].step(r, dim); !seen[next] {
				seen[next] = true
				states = append(states, next)
			}
		}
	}
	return states
}

// chunkStep runs `chunk` bit positions, top first, through the transducer.
// in and out hold `chunk` bits per axis, axis 0 in the leading group.
func chunkStep(g axisMap, in uint32, dim, chunk int) (out uint32, next axisMap) {
	for pos := chunk - 1; pos >= 0; pos-- {
		var r uint32
		for i := 0; i < dim; i++ {
			r = r<<1 | in>>uint((dim-1-i)*chunk+pos)&1
		}
		var b uint32
		b, g = g.step(r, dim)
		for i := 0; i < dim; i++ {
			out |= (b >> uint(dim-1-i) & 1) << uint((dim-1-i)*chunk+pos)
		}
	}
	return out, g
}

func init() {
	fill := func(dim, chunk, stateBits int, set func(q, in int, entry uint32)) {
		states := closeStates(dim)
		id := make(map[axisMap]uint32, len(states))
		for q, g := range states {
			id[g] = uint32(q)
		}
		for q, g := range states {
			for in := 0; in < 1<<uint(dim*chunk); in++ {
				out, next := chunkStep(g, uint32(in), dim, chunk)
				set(q, in, out<<uint(stateBits)|id[next])
			}
		}
	}
	fill(2, 1, stateBits2D, func(q, in int, e uint32) { hilbert2Bit[q][in] = uint8(e) })
	fill(2, 4, stateBits2D, func(q, in int, e uint32) { hilbert2Nibble[q][in] = uint16(e) })
	fill(3, 1, stateBits3D, func(q, in int, e uint32) { hilbert3Bit[q][in] = uint16(e) })
	fill(3, 2, stateBits3D, func(q, in int, e uint32) { hilbert3Pair[q][in] = uint16(e) })
}

// index2D is the 2D key of cell (x0, x1): the transpose by table — the
// leading bits mod 4 positions one at a time, the rest a nibble per
// lookup — then the Gray step and the interleave by bit spreading.
func index2D(x0, x1 uint32, bits uint) uint64 {
	var t0, t1, st uint32
	s := bits
	for lead := bits & 3; lead > 0; lead-- {
		s--
		e := uint32(hilbert2Bit[st][(x0>>s&1)<<1|x1>>s&1])
		t0 = t0<<1 | e>>(stateBits2D+1)
		t1 = t1<<1 | e>>stateBits2D&1
		st = e & (1<<stateBits2D - 1)
	}
	for s > 0 {
		s -= 4
		e := uint32(hilbert2Nibble[st][(x0>>s&15)<<4|x1>>s&15])
		t0 = t0<<4 | e>>(stateBits2D+4)
		t1 = t1<<4 | e>>stateBits2D&15
		st = e & (1<<stateBits2D - 1)
	}
	t1 ^= t0 // Gray encode
	t := suffixParity(t1)
	t0 ^= t
	t1 ^= t
	return spread2(uint64(t0))<<1 | spread2(uint64(t1))
}

// index3D is the 3D key of cell (x0, x1, x2) by table (see index2D): the
// leading bit of an odd order alone, the rest two positions per lookup.
func index3D(x0, x1, x2 uint32, bits uint) uint64 {
	var t0, t1, t2, st uint32
	s := bits
	if bits&1 != 0 {
		s--
		e := uint32(hilbert3Bit[st][(x0>>s&1)<<2|(x1>>s&1)<<1|x2>>s&1])
		t0, t1, t2 = e>>(stateBits3D+2), e>>(stateBits3D+1)&1, e>>stateBits3D&1
		st = e & (1<<stateBits3D - 1)
	}
	for s > 0 {
		s -= 2
		e := uint32(hilbert3Pair[st][(x0>>s&3)<<4|(x1>>s&3)<<2|x2>>s&3])
		t0 = t0<<2 | e>>(stateBits3D+4)
		t1 = t1<<2 | e>>(stateBits3D+2)&3
		t2 = t2<<2 | e>>stateBits3D&3
		st = e & (1<<stateBits3D - 1)
	}
	t1 ^= t0 // Gray encode
	t2 ^= t1
	t := suffixParity(t2)
	t0 ^= t
	t1 ^= t
	t2 ^= t
	return spread3(uint64(t0))<<2 | spread3(uint64(t1))<<1 | spread3(uint64(t2))
}

// KeysCols computes the Hilbert key of every point in the SoA columns and
// writes them to out (len(out) = cols.Len()). Only the Dim leading columns
// are read, so a 2D store may leave Z nil.
func (c *Curve) KeysCols(cols *geom.Cols, out []uint64) {
	c.keysRange(cols, out, 0, len(out))
}

// cell clamps a coordinate already scaled into cell space to a cell
// index: NaN and anything at or below 0 to 0, anything at or above
// maxCellF to maxCell.
func cell(v, maxCellF float64, maxCell uint32) uint32 {
	switch {
	case v <= 0 || v != v: // also catches NaN
		return 0
	case v >= maxCellF:
		return maxCell
	}
	return uint32(v)
}

// keysRange computes keys for the half-open index range [lo, hi).
//
// In 1D the key is the cell index. Skilling's loop leaves one axis word
// x unchanged: its first pass walks the bits from the top and flips every
// bit below a set one, so afterwards bit j is x_j xor the parity of the
// result's bits above j; its Gray step flips bit j by that same parity,
// restoring x_j, and interleaving a single word is the identity.
func (c *Curve) keysRange(cols *geom.Cols, out []uint64, lo, hi int) {
	maxCellF := float64(uint32(1)<<c.bits - 1)
	maxCell := uint32(1)<<c.bits - 1
	switch c.dim {
	case 1:
		px := cols.X
		min0, s0 := c.box.Min[0], c.scale[0]
		for i := lo; i < hi; i++ {
			out[i] = uint64(cell((px[i]-min0)*s0, maxCellF, maxCell))
		}
	case 2:
		px, py := cols.X, cols.Y
		min0, min1 := c.box.Min[0], c.box.Min[1]
		s0, s1 := c.scale[0], c.scale[1]
		bits := c.bits
		for i := lo; i < hi; i++ {
			out[i] = index2D(
				cell((px[i]-min0)*s0, maxCellF, maxCell),
				cell((py[i]-min1)*s1, maxCellF, maxCell), bits)
		}
	case 3:
		px, py, pz := cols.X, cols.Y, cols.Z
		min0, min1, min2 := c.box.Min[0], c.box.Min[1], c.box.Min[2]
		s0, s1, s2 := c.scale[0], c.scale[1], c.scale[2]
		bits := c.bits
		for i := lo; i < hi; i++ {
			out[i] = index3D(
				cell((px[i]-min0)*s0, maxCellF, maxCell),
				cell((py[i]-min1)*s1, maxCellF, maxCell),
				cell((pz[i]-min2)*s2, maxCellF, maxCell), bits)
		}
	}
}

// KeysColsParallel is KeysCols with the shared machine-independent
// chunk grid (geom.ChunkGrid, the same grid the intra-rank assignment
// kernels split on) processed by up to `workers` concurrent workers —
// the caller plus helpers admitted against the given sched.Lease (nil
// draws on the process-default pool; ≤ 1 worker runs serially). Keys
// are pure per-point functions written to disjoint indices, so output
// is bit-identical for every worker count and token availability.
func (c *Curve) KeysColsParallel(cols *geom.Cols, out []uint64, workers int, lease *sched.Lease) {
	n := len(out)
	nc := geom.ChunkGrid(n)
	if nc == 1 {
		c.keysRange(cols, out, 0, n)
		return
	}
	chunk := (n + nc - 1) / nc
	lease.ForEach(workers, nc, func(s int) {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c.keysRange(cols, out, lo, hi)
	})
}
