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
// ids of the 3D graph; a larger one, a NaN or +Inf weight, or a NaN or
// +Inf layerHeight is an error (a layerHeight ≤ 0 means 0.01).
func Extrude25D(surface *Mesh, layerHeight float64) (*Mesh, error) {
	if surface.Points.Dim != 2 {
		return nil, fmt.Errorf("mesh: Extrude25D needs a 2D mesh, got dim %d", surface.Points.Dim)
	}
	if !(layerHeight < math.Inf(1)) {
		return nil, fmt.Errorf("mesh: Extrude25D: layer height %g is not finite", layerHeight)
	}
	if layerHeight <= 0 {
		layerHeight = 0.01
	}
	layers, total, err := layerCounts(surface)
	if err != nil {
		return nil, err
	}
	n2 := surface.N()

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

// layerCounts returns the layer count max(1, ⌊weight⌋) of every surface
// vertex and their total. The 3D vertex ids are int32 (graph.FromEdges),
// so a total past math.MaxInt32 is an error, as are a NaN or +Inf weight
// and a surface without weights; each is rejected before any per-layer
// allocation.
func layerCounts(surface *Mesh) ([]int, int, error) {
	w := surface.Points.Weight
	if w == nil {
		return nil, 0, fmt.Errorf("mesh: the surface has no layer weights")
	}
	layers := make([]int, surface.N())
	total := 0
	for v := range layers {
		l := math.Max(1, math.Floor(w[v]))
		// The negated test also rejects a NaN weight.
		if !(l <= float64(math.MaxInt32-total)) {
			return nil, 0, fmt.Errorf("mesh: weight %g at vertex %d takes the layer count past %d", w[v], v, math.MaxInt32)
		}
		layers[v] = int(l)
		total += int(l)
	}
	return layers, total, nil
}

// ColumnOf returns, for an extruded mesh built from `surface`, the mapping
// from 3D vertex index to its surface column, so a 2D partition can be
// lifted to the 3D mesh (each column inherits its surface block). The
// layer counts are bounded as Extrude25D bounds them.
func ColumnOf(surface *Mesh) ([]int32, error) {
	layers, total, err := layerCounts(surface)
	if err != nil {
		return nil, err
	}
	out := make([]int32, 0, total)
	for v, l := range layers {
		for i := 0; i < l; i++ {
			out = append(out, int32(v))
		}
	}
	return out, nil
}

// LiftPartition lifts a surface partition to the extruded 3D mesh
// (column-wise assignment, the way climate codes apply 2D partitions);
// a negative block id is an error.
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
		if out[i] = part2d[c]; out[i] < 0 {
			return nil, fmt.Errorf("mesh: vertex %d in negative block %d", c, out[i])
		}
	}
	return out, nil
}
