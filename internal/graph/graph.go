// Package graph provides the compressed sparse row (CSR) graph type used
// for meshes and their quality evaluation.
//
// Geographer itself partitions point sets; the *evaluation* (paper §2,
// §5.2.4) is graph-based: edge cut, communication volume, and block
// diameters are computed on the mesh graph, and the SpMV benchmark
// multiplies by its adjacency matrix. This package supplies that
// substrate: CSR storage, construction from edge lists, BFS with
// restriction (for per-block diameters), and connected components.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph in CSR form. Adjacency of vertex v is
// Adj[Xadj[v]:Xadj[v+1]], sorted ascending. Every undirected edge {u,v}
// appears twice (u→v and v→u).
type Graph struct {
	N    int
	Xadj []int64
	Adj  []int32
}

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int {
	return int(g.Xadj[v+1] - g.Xadj[v])
}

// Neighbors returns the adjacency slice of v (do not modify).
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Adj[g.Xadj[v]:g.Xadj[v+1]]
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > best {
			best = d
		}
	}
	return best
}

// AvgDegree returns the mean vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.Adj)) / float64(g.N)
}

// FromEdges builds a CSR graph with n vertices from an undirected edge
// list. Self-loops are dropped; duplicate edges are merged.
func FromEdges(n int, edges [][2]int32) *Graph {
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, deg[n])
	pos := make([]int64, n)
	copy(pos, deg[:n])
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		adj[pos[e[0]]] = e[1]
		pos[e[0]]++
		adj[pos[e[1]]] = e[0]
		pos[e[1]]++
	}
	g := &Graph{N: n, Xadj: deg, Adj: adj}
	g.normalize()
	return g
}

// normalize sorts each adjacency list and removes duplicates, fixing up
// Xadj.
func (g *Graph) normalize() {
	out := g.Adj[:0]
	newX := make([]int64, g.N+1)
	for v := 0; v < g.N; v++ {
		lo, hi := g.Xadj[v], g.Xadj[v+1]
		nb := g.Adj[lo:hi]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		start := len(out)
		for i, u := range nb {
			if i > 0 && nb[i-1] == u {
				continue
			}
			out = append(out, u)
		}
		newX[v] = int64(start)
	}
	newX[g.N] = int64(len(out))
	// Compact: shift to the beginning (adjacency lists were compacted into
	// the same backing array from the left).
	g.Adj = out
	g.Xadj = newX
}

// CheckBounds checks that g can be read without going out of bounds:
// len(Xadj) = N+1 ≥ 1, Xadj runs monotonically from 0 to len(Adj), and
// every neighbor id lies in [0, N). It does not require sorted,
// loop-free or symmetric adjacency; code that reads a caller's CSR
// arrays calls it before indexing them.
func (g *Graph) CheckBounds() error {
	if g.N < 0 || len(g.Xadj) != g.N+1 {
		return fmt.Errorf("graph: Xadj length %d for %d vertices", len(g.Xadj), g.N)
	}
	if g.Xadj[0] != 0 || g.Xadj[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: bad Xadj bounds")
	}
	for v := 0; v < g.N; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("graph: Xadj not monotone at %d", v)
		}
	}
	for i, u := range g.Adj {
		if u < 0 || int(u) >= g.N {
			return fmt.Errorf("graph: out-of-range neighbor %d at Adj[%d]", u, i)
		}
	}
	return nil
}

// Validate checks CSR structural invariants: CheckBounds, then sorted
// unique adjacency, no self-loops, symmetry.
func (g *Graph) Validate() error {
	if err := g.CheckBounds(); err != nil {
		return err
	}
	for v := 0; v < g.N; v++ {
		nb := g.Neighbors(int32(v))
		for i, u := range nb {
			if u == int32(v) {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not sorted/unique", v)
			}
			if !g.HasEdge(u, int32(v)) {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, u)
			}
		}
	}
	return nil
}

// HasEdge reports whether {u,v} is an edge (binary search).
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// BFS is a reusable breadth-first search workspace. The epoch trick avoids
// clearing the distance array between runs, which matters when computing
// per-block diameters over thousands of blocks.
type BFS struct {
	Dist  []int32
	mark  []uint32
	epoch uint32
	queue []int32
}

// NewBFS returns a workspace for graphs with up to n vertices.
func NewBFS(n int) *BFS {
	return &BFS{Dist: make([]int32, n), mark: make([]uint32, n), queue: make([]int32, 0, 1024)}
}

// Seen reports whether v was reached by the most recent Run.
func (b *BFS) Seen(v int32) bool { return b.mark[v] == b.epoch }

// Run performs a BFS from start over vertices for which allow returns true
// (allow == nil means all). It returns the farthest vertex found, its
// distance (eccentricity lower bound from start), and the number of
// visited vertices.
func (b *BFS) Run(g *Graph, start int32, allow func(int32) bool) (far int32, ecc int32, visited int) {
	b.epoch++
	if b.epoch == 0 { // wrapped: clear marks once
		for i := range b.mark {
			b.mark[i] = 0
		}
		b.epoch = 1
	}
	b.queue = b.queue[:0]
	b.queue = append(b.queue, start)
	b.mark[start] = b.epoch
	b.Dist[start] = 0
	far, ecc, visited = start, 0, 1
	for head := 0; head < len(b.queue); head++ {
		v := b.queue[head]
		dv := b.Dist[v]
		for _, u := range g.Neighbors(v) {
			if b.mark[u] == b.epoch {
				continue
			}
			if allow != nil && !allow(u) {
				continue
			}
			b.mark[u] = b.epoch
			b.Dist[u] = dv + 1
			if dv+1 > ecc {
				ecc, far = dv+1, u
			}
			b.queue = append(b.queue, u)
			visited++
		}
	}
	return far, ecc, visited
}

// Components labels connected components; the result maps each vertex to a
// component id in [0, #components).
func Components(g *Graph) (comp []int32, count int) {
	comp = make([]int32, g.N)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, 1024)
	for v := 0; v < g.N; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := int32(count)
		comp[v] = id
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, u := range g.Neighbors(x) {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}
