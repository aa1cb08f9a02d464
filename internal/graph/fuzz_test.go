package graph

import "testing"

// hugeXadj is the byte that decodeCSR expands to an Xadj entry of 1<<40.
const hugeXadj = 0x7f

// decodeCSR builds arbitrary CSR arrays from fuzz bytes: data[0] mod 17
// is len(Xadj), the next len(Xadj) bytes are its entries as signed
// bytes (hugeXadj stands for 1<<40), and every remaining byte is one
// Adj entry as a signed byte.
func decodeCSR(data []byte) *Graph {
	if len(data) == 0 {
		return &Graph{N: -1}
	}
	nx := min(int(data[0]%17), len(data)-1)
	var xadj []int64
	for _, b := range data[1 : 1+nx] {
		v := int64(int8(b))
		if b == hugeXadj {
			v = 1 << 40
		}
		xadj = append(xadj, v)
	}
	var adj []int32
	for _, b := range data[1+nx:] {
		adj = append(adj, int32(int8(b)))
	}
	return &Graph{N: len(xadj) - 1, Xadj: xadj, Adj: adj}
}

// encodeCSR is decodeCSR's inverse for entries that fit a signed byte
// (and Xadj entries of 1<<40).
func encodeCSR(xadj []int64, adj []int32) []byte {
	data := []byte{byte(len(xadj))}
	for _, v := range xadj {
		b := byte(int8(v))
		if v == 1<<40 {
			b = hugeXadj
		}
		data = append(data, b)
	}
	for _, u := range adj {
		data = append(data, byte(int8(u)))
	}
	return data
}

// FuzzGraphValidate: Validate and CheckBounds never panic, Validate
// accepts nothing CheckBounds rejects, and a graph CheckBounds accepts
// can be walked — every Neighbors(v) slices in bounds and
// holds only ids in [0, N). Seeded with the malformed inputs the facade
// rejects (a huge or non-monotone Xadj entry, a neighbor id ≥ n, nil
// Xadj) and with a valid path graph.
func FuzzGraphValidate(f *testing.F) {
	p := path(6)
	huge := append([]int64(nil), p.Xadj...)
	huge[5] = 1 << 40
	outOfRange := append([]int32(nil), p.Adj...)
	outOfRange[0] = 6
	for _, seed := range [][]byte{
		encodeCSR(p.Xadj, p.Adj),
		encodeCSR(huge, p.Adj),
		encodeCSR(p.Xadj, outOfRange),
		encodeCSR(nil, nil),
		encodeCSR([]int64{0, 100, 5}, []int32{1, 0, 1, 0, 1}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeCSR(data)
		boundsErr := g.CheckBounds()
		if g.Validate() == nil && boundsErr != nil {
			t.Fatalf("Validate accepted a graph CheckBounds rejects: %v", boundsErr)
		}
		if boundsErr == nil {
			walk(t, g)
		}
	})
}

// walk reads every adjacency row of g and checks its ids are in range.
func walk(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if u < 0 || int(u) >= g.N {
				t.Fatalf("vertex %d has neighbor %d outside [0, %d)", v, u, g.N)
			}
		}
	}
}
