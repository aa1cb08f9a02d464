package mesh

import (
	"fmt"
	"sort"

	"geographer/internal/geom"
	"geographer/internal/graph"
)

// Mesh couples a weighted point set with its adjacency graph. This is the
// common input of all experiments: partitioners consume the points (and
// weights, for 2.5D meshes), the evaluation metrics consume the graph.
type Mesh struct {
	Name   string
	Points *geom.PointSet
	G      *graph.Graph
}

// N returns the number of vertices.
func (m *Mesh) N() int { return m.Points.Len() }

// Validate checks that points and graph agree and both are well-formed.
func (m *Mesh) Validate() error {
	if err := m.Points.Validate(); err != nil {
		return fmt.Errorf("mesh %s: %w", m.Name, err)
	}
	if m.G.N != m.Points.Len() {
		return fmt.Errorf("mesh %s: %d vertices vs %d points", m.Name, m.G.N, m.Points.Len())
	}
	if err := m.G.Validate(); err != nil {
		return fmt.Errorf("mesh %s: %w", m.Name, err)
	}
	return nil
}

// String summarizes the mesh.
func (m *Mesh) String() string {
	return fmt.Sprintf("%s: n=%d m=%d dim=%d avgdeg=%.1f",
		m.Name, m.N(), m.G.M(), m.Points.Dim, m.G.AvgDegree())
}

// LargestComponent returns the sub-mesh induced by the largest connected
// component (vertex ids are compacted). Ocean meshes become disconnected
// when continents are cut out; the paper's climate graphs are the
// connected ocean part.
func LargestComponent(m *Mesh) *Mesh {
	comp, count := graph.Components(m.G)
	if count <= 1 {
		return m
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	keep := make([]int, 0, sizes[best])
	remap := make([]int32, m.G.N)
	for v := 0; v < m.G.N; v++ {
		if comp[v] == int32(best) {
			remap[v] = int32(len(keep))
			keep = append(keep, v)
		} else {
			remap[v] = -1
		}
	}
	var edges [][2]int32
	for _, v := range keep {
		for _, u := range m.G.Neighbors(int32(v)) {
			if remap[u] >= 0 && remap[v] < remap[u] {
				edges = append(edges, [2]int32{remap[v], remap[u]})
			}
		}
	}
	return &Mesh{
		Name:   m.Name,
		Points: m.Points.Subset(keep),
		G:      graph.FromEdges(len(keep), edges),
	}
}

// FilterLongEdges removes edges longer than factor × the median edge
// length. Delaunay triangulations of masked domains (ocean meshes) span
// the holes with long edges; dropping them restores the coastline.
func FilterLongEdges(m *Mesh, factor float64) *Mesh {
	type edge struct {
		u, v int32
		len2 float64
	}
	var edges []edge
	for v := 0; v < m.G.N; v++ {
		for _, u := range m.G.Neighbors(int32(v)) {
			if int32(v) < u {
				d := geom.Dist2(m.Points.At(v), m.Points.At(int(u)), m.Points.Dim)
				edges = append(edges, edge{int32(v), u, d})
			}
		}
	}
	if len(edges) == 0 {
		return m
	}
	lens := make([]float64, len(edges))
	for i, e := range edges {
		lens[i] = e.len2
	}
	sort.Float64s(lens)
	cut := lens[len(lens)/2] * factor * factor
	keep := make([][2]int32, 0, len(edges))
	for _, e := range edges {
		if e.len2 <= cut {
			keep = append(keep, [2]int32{e.u, e.v})
		}
	}
	return &Mesh{Name: m.Name, Points: m.Points, G: graph.FromEdges(m.G.N, keep)}
}

// EdgeLengthStats returns min/median/max Euclidean edge lengths.
func EdgeLengthStats(m *Mesh) (min, median, max float64) {
	var lens []float64
	for v := 0; v < m.G.N; v++ {
		for _, u := range m.G.Neighbors(int32(v)) {
			if int32(v) < u {
				lens = append(lens, geom.Dist(m.Points.At(v), m.Points.At(int(u)), m.Points.Dim))
			}
		}
	}
	if len(lens) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(lens)
	return lens[0], lens[len(lens)/2], lens[len(lens)-1]
}
