package sfc

import "testing"

// FuzzIndexRoundTrip checks that the oracle's Coords inverts the
// production key for any cell coordinates and curve order, in 1D and in
// 2D or 3D.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(4), false)
	f.Add(uint32(123456), uint32(654321), uint32(111111), uint8(21), true)
	f.Fuzz(func(t *testing.T, x, y, z uint32, bitsRaw uint8, threeD bool) {
		dim := 2
		maxBits := uint(Order2D)
		if threeD {
			dim = 3
			maxBits = Order3D
		}
		for _, dim := range []int{1, dim} {
			bits := uint(bitsRaw)%maxBits + 1
			mask := uint32(1)<<bits - 1
			var c [3]uint32
			copy(c[:dim], []uint32{x & mask, y & mask, z & mask})
			h := cellKeys([][3]uint32{c}, bits, dim)[0]
			if back := Coords(h, bits, dim); back != c {
				t.Fatalf("dim=%d bits=%d: %v -> %d -> %v", dim, bits, c, h, back)
			}
		}
	})
}
