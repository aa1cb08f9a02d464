package mesh

import (
	"fmt"
	"math"

	"geographer/internal/geom"
	"geographer/internal/graph"
)

// Extrude25D materializes the paper's 2.5D story (§1): climate meshes are
// "partitioned in 2D and then extended to a 3D mesh during the simulation
// using topography information", where the vertex weight of the 2D mesh
// is the number of 3D grid points below it.
//
// Given a weighted 2D surface mesh (weight = layer count, e.g. from
// GenClimate), Extrude25D builds that 3D mesh explicitly: vertex (v, l)
// exists for every surface vertex v and layer l < weight(v); vertical
// edges connect consecutive layers of one column; horizontal edges connect
// (u, l)-(v, l) whenever {u,v} is a surface edge and both columns reach
// layer l. The result lets experiments check that partitioning the
// weighted 2D mesh is equivalent in load terms to partitioning the full
// 3D mesh column-wise. The total layer count must fit the int32 vertex
// ids of the 3D graph; a larger one (or a NaN weight) is an error.
func Extrude25D(surface *Mesh, layerHeight float64) (*Mesh, error) {
	if surface.Points.Dim != 2 {
		return nil, fmt.Errorf("mesh: Extrude25D needs a 2D mesh, got dim %d", surface.Points.Dim)
	}
	if surface.Points.Weight == nil {
		return nil, fmt.Errorf("mesh: Extrude25D needs layer weights")
	}
	if layerHeight <= 0 {
		layerHeight = 0.01
	}
	n2 := surface.N()
	layers := make([]int, n2)
	total := 0
	for v := 0; v < n2; v++ {
		l := math.Max(1, math.Floor(surface.Points.Weight[v]))
		// 3D vertex ids are int32 (graph.FromEdges); the negated test
		// also rejects a NaN weight.
		if !(l <= float64(math.MaxInt32-total)) {
			return nil, fmt.Errorf("mesh: Extrude25D: weight %g at vertex %d takes the layer count past %d",
				surface.Points.Weight[v], v, math.MaxInt32)
		}
		layers[v] = int(l)
		total += int(l)
	}

	// Column base index per surface vertex.
	base := make([]int, n2+1)
	for v := 0; v < n2; v++ {
		base[v+1] = base[v] + layers[v]
	}

	ps := geom.NewPointSet(3, total)
	for v := 0; v < n2; v++ {
		p := surface.Points.At(v)
		for l := 0; l < layers[v]; l++ {
			ps.Append(geom.Point{p[0], p[1], -float64(l) * layerHeight}, 1)
		}
	}

	var edges [][2]int32
	for v := 0; v < n2; v++ {
		// Vertical column edges.
		for l := 0; l+1 < layers[v]; l++ {
			edges = append(edges, [2]int32{int32(base[v] + l), int32(base[v] + l + 1)})
		}
		// Horizontal edges per shared layer.
		for _, u := range surface.G.Neighbors(int32(v)) {
			if u <= int32(v) {
				continue
			}
			shared := layers[v]
			if lu := layers[u]; lu < shared {
				shared = lu
			}
			for l := 0; l < shared; l++ {
				edges = append(edges, [2]int32{int32(base[v] + l), int32(base[int(u)] + l)})
			}
		}
	}
	g := graph.FromEdges(total, edges)
	return &Mesh{Name: surface.Name + "-3d", Points: ps, G: g}, nil
}

// ColumnOf returns, for an extruded mesh built from `surface`, the mapping
// from 3D vertex index to its surface column, so a 2D partition can be
// lifted to the 3D mesh (each column inherits its surface block).
func ColumnOf(surface *Mesh) ([]int32, error) {
	if surface.Points.Weight == nil {
		return nil, fmt.Errorf("mesh: ColumnOf needs layer weights")
	}
	var out []int32
	for v := 0; v < surface.N(); v++ {
		l := int(math.Max(1, math.Floor(surface.Points.Weight[v])))
		for i := 0; i < l; i++ {
			out = append(out, int32(v))
		}
	}
	return out, nil
}

// LiftPartition lifts a surface partition to the extruded 3D mesh
// (column-wise assignment, the way climate codes apply 2D partitions).
func LiftPartition(surface *Mesh, part2d []int32) ([]int32, error) {
	if len(part2d) != surface.N() {
		return nil, fmt.Errorf("mesh: partition length %d != surface n %d", len(part2d), surface.N())
	}
	cols, err := ColumnOf(surface)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(cols))
	for i, c := range cols {
		out[i] = part2d[c]
	}
	return out, nil
}
