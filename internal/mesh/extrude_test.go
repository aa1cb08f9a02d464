package mesh

import (
	"math"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/graph"
)

// tinySurface builds a 3-vertex weighted path: weights 2, 3, 1.
func tinySurface() *Mesh {
	ps := geom.NewPointSet(2, 3)
	ps.Weight = []float64{2, 3, 1}
	ps.Append(geom.Point{0, 0}, 2)
	ps.Append(geom.Point{1, 0}, 3)
	ps.Append(geom.Point{2, 0}, 1)
	ps.Weight = []float64{2, 3, 1}
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	return &Mesh{Name: "tiny", Points: ps, G: g}
}

func TestExtrude25DStructure(t *testing.T) {
	s := tinySurface()
	m3, err := Extrude25D(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 + 3 + 1 = 6 vertices.
	if m3.N() != 6 {
		t.Fatalf("n = %d, want 6", m3.N())
	}
	if err := m3.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edges: vertical 1 + 2 + 0 = 3; horizontal: v0-v1 share 2 layers,
	// v1-v2 share 1 layer => 3. Total 6.
	if m3.G.M() != 6 {
		t.Fatalf("m = %d, want 6", m3.G.M())
	}
	// Column 0 layers: indices 0,1; column 1: 2,3,4; column 2: 5.
	if !m3.G.HasEdge(0, 1) || !m3.G.HasEdge(2, 3) || !m3.G.HasEdge(3, 4) {
		t.Error("vertical edges missing")
	}
	if !m3.G.HasEdge(0, 2) || !m3.G.HasEdge(1, 3) || !m3.G.HasEdge(2, 5) {
		t.Error("horizontal layer edges missing")
	}
	if m3.G.HasEdge(1, 5) {
		t.Error("layer-1 edge to a 1-layer column must not exist")
	}
}

func TestExtrude25DErrors(t *testing.T) {
	s := tinySurface()
	s.Points.Weight = nil
	if _, err := Extrude25D(s, 0.1); err == nil {
		t.Error("unweighted surface accepted")
	}
	ps3 := geom.NewPointSet(3, 1)
	ps3.Append(geom.Point{0, 0, 0}, 1)
	bad := &Mesh{Name: "x", Points: ps3, G: graph.FromEdges(1, nil)}
	if _, err := Extrude25D(bad, 0.1); err == nil {
		t.Error("3D surface accepted")
	}
}

func TestLiftPartitionPreservesColumnLoads(t *testing.T) {
	s, err := GenClimate(2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Extrude25D(s, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	// Total 3D vertices = total surface weight (floored).
	wantN := 0
	for v := 0; v < s.N(); v++ {
		wantN += int(s.Points.Weight[v])
	}
	if m3.N() != wantN {
		t.Fatalf("extruded n = %d, want %d", m3.N(), wantN)
	}

	// A 2-block surface partition lifts to a 3D partition whose block
	// sizes equal the weighted surface block sizes — the exact 2.5D
	// equivalence the paper relies on.
	part2d := make([]int32, s.N())
	for v := range part2d {
		if s.Points.At(v)[0] > 1.0 {
			part2d[v] = 1
		}
	}
	part3d, err := LiftPartition(s, part2d)
	if err != nil {
		t.Fatal(err)
	}
	var w2 [2]float64
	for v := 0; v < s.N(); v++ {
		w2[part2d[v]] += float64(int(s.Points.Weight[v]))
	}
	var n3 [2]int
	for _, b := range part3d {
		n3[b]++
	}
	for b := 0; b < 2; b++ {
		if float64(n3[b]) != w2[b] {
			t.Errorf("block %d: 3D size %d != weighted 2D size %.0f", b, n3[b], w2[b])
		}
	}
}

func TestLiftPartitionErrors(t *testing.T) {
	s := tinySurface()
	if _, err := LiftPartition(s, []int32{0}); err == nil {
		t.Error("short partition accepted")
	}
}

// TestColumnOfRejectsUnboundedLayers: ColumnOf (and LiftPartition
// through it) bounds the layer counts as Extrude25D does. A NaN or +Inf
// weight used to drop its column silently; a count past the int32
// vertex ids is rejected before the columns are allocated.
func TestColumnOfRejectsUnboundedLayers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []float64
	}{
		{"NaN", []float64{2, math.NaN(), 3}},
		{"+Inf", []float64{2, math.Inf(1), 3}},
		{"past int32", []float64{2, 1e12, 3}},
		{"total past int32", []float64{2e9, 2e9, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySurface()
			s.Points.Weight = tc.weights
			if cols, err := ColumnOf(s); err == nil {
				t.Errorf("ColumnOf accepted: %d column entries", len(cols))
			}
			if lifted, err := LiftPartition(s, []int32{0, 1, 1}); err == nil {
				t.Errorf("LiftPartition accepted: %v", lifted)
			}
			if _, err := Extrude25D(s, 0.1); err == nil {
				t.Error("Extrude25D accepted")
			}
		})
	}
}
