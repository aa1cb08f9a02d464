// Package mesh builds the simulation meshes used in the paper's
// evaluation (§5.2.3): Delaunay triangulations of random point sets,
// adaptively refined 2D meshes, airfoil-style FEM meshes, random geometric
// graphs, 2.5D climate meshes with node weights, and 3D meshes.
//
// The 2D triangulator below is a from-scratch Bowyer–Watson implementation
// with Hilbert-order insertion and a remembering walk for point location,
// giving near-linear construction on the graded point sets the generators
// produce.
package mesh

import (
	"fmt"
	"sort"

	"geographer/internal/geom"
	"geographer/internal/graph"
	"geographer/internal/sfc"
)

// orient2d returns twice the signed area of triangle (a,b,c):
// positive if CCW, negative if CW, ~0 if collinear.
func orient2d(ax, ay, bx, by, cx, cy float64) float64 {
	return (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
}

// incircle returns a positive value if p lies strictly inside the
// circumcircle of the CCW triangle (a,b,c).
func incircle(ax, ay, bx, by, cx, cy, px, py float64) float64 {
	adx, ady := ax-px, ay-py
	bdx, bdy := bx-px, by-py
	cdx, cdy := cx-px, cy-py
	ad := adx*adx + ady*ady
	bd := bdx*bdx + bdy*bdy
	cd := cdx*cdx + cdy*cdy
	return adx*(bdy*cd-bd*cdy) - ady*(bdx*cd-bd*cdx) + ad*(bdx*cdy-bdy*cdx)
}

// dtri is one triangle of the incremental triangulation. Vertices are CCW;
// nbr[i] is the triangle across the edge opposite v[i], i.e. the edge
// (v[i+1], v[i+2]); -1 means no neighbor (outer boundary).
type dtri struct {
	v    [3]int32
	nbr  [3]int32
	dead bool
}

// delaunay2D computes the Delaunay triangulation of the given 2D points
// and returns the edge graph (super-triangle artifacts removed).
func delaunay2D(ps *geom.PointSet) (*graph.Graph, error) {
	n := ps.Len()
	if n < 2 {
		return graph.FromEdges(n, nil), nil
	}
	box := ps.Bounds()

	// Coordinates, with three super-triangle vertices appended.
	px := make([]float64, n+3)
	py := make([]float64, n+3)
	for i := 0; i < n; i++ {
		p := ps.At(i)
		px[i], py[i] = p[0], p[1]
	}
	cx, cy := box.Center()[0], box.Center()[1]
	span := box.Diagonal()
	if span == 0 {
		span = 1
	}
	big := 64 * span
	px[n], py[n] = cx-big, cy-big
	px[n+1], py[n+1] = cx+big, cy-big
	px[n+2], py[n+2] = cx, cy+big

	d := &delaunayState{px: px, py: py, super: int32(n)}
	d.tris = append(d.tris, dtri{
		v:   [3]int32{int32(n), int32(n + 1), int32(n + 2)},
		nbr: [3]int32{-1, -1, -1},
	})

	// Insert points in Hilbert order for walk locality.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	keys := make([]uint64, n)
	sfc.NewCurveOrder(box, 2, 16).KeysCols(&geom.Cols{Dim: 2, X: px[:n], Y: py[:n]}, keys)
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })

	for _, ip := range order {
		if err := d.insert(ip); err != nil {
			return nil, err
		}
	}

	// Extract edges not incident to super-triangle vertices.
	edges := make([][2]int32, 0, 3*n)
	for ti := range d.tris {
		t := &d.tris[ti]
		if t.dead {
			continue
		}
		for i := 0; i < 3; i++ {
			a, b := t.v[i], t.v[(i+1)%3]
			if a >= int32(n) || b >= int32(n) {
				continue
			}
			if a < b { // each undirected edge once
				edges = append(edges, [2]int32{a, b})
			}
		}
	}
	return graph.FromEdges(n, edges), nil
}

type delaunayState struct {
	px, py []float64
	tris   []dtri
	free   []int32
	super  int32 // first super vertex index
	last   int32 // walk start

	// scratch buffers reused across insertions
	cavity   []int32
	inCavity map[int32]bool
	startMap map[int32]int32
	endMap   map[int32]int32
}

func (d *delaunayState) alloc(t dtri) int32 {
	if k := len(d.free); k > 0 {
		idx := d.free[k-1]
		d.free = d.free[:k-1]
		d.tris[idx] = t
		return idx
	}
	d.tris = append(d.tris, t)
	return int32(len(d.tris) - 1)
}

// locate returns a triangle containing point ip, using a remembering walk
// from the last created triangle with a linear-scan fallback.
func (d *delaunayState) locate(ip int32) (int32, error) {
	x, y := d.px[ip], d.py[ip]
	t := d.last
	if t < 0 || int(t) >= len(d.tris) || d.tris[t].dead {
		t = d.anyAlive()
	}
	maxSteps := 4*len(d.tris) + 64
	prev := int32(-1)
	for step := 0; step < maxSteps; step++ {
		tr := &d.tris[t]
		next := int32(-1)
		for i := 0; i < 3; i++ {
			a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
			if tr.nbr[i] == prev && prev != -1 {
				continue // don't immediately walk back
			}
			if orient2d(d.px[a], d.py[a], d.px[b], d.py[b], x, y) < 0 {
				next = tr.nbr[i]
				break
			}
		}
		if next == -1 {
			// Check all edges (including the one toward prev) before
			// declaring containment.
			inside := true
			for i := 0; i < 3; i++ {
				a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
				if orient2d(d.px[a], d.py[a], d.px[b], d.py[b], x, y) < 0 {
					inside = false
					next = tr.nbr[i]
					break
				}
			}
			if inside {
				return t, nil
			}
		}
		if next == -1 {
			break // walked off the hull: numerical trouble
		}
		prev, t = t, next
	}
	// Fallback: exhaustive scan.
	for ti := range d.tris {
		tr := &d.tris[ti]
		if tr.dead {
			continue
		}
		ok := true
		for i := 0; i < 3 && ok; i++ {
			a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
			if orient2d(d.px[a], d.py[a], d.px[b], d.py[b], x, y) < 0 {
				ok = false
			}
		}
		if ok {
			return int32(ti), nil
		}
	}
	return -1, fmt.Errorf("mesh: point %d not located in any triangle", ip)
}

func (d *delaunayState) anyAlive() int32 {
	for ti := range d.tris {
		if !d.tris[ti].dead {
			return int32(ti)
		}
	}
	return 0
}

// insert adds point ip via Bowyer–Watson: find the cavity of triangles
// whose circumcircle contains ip, remove it, and re-triangulate its star
// polygon around ip.
func (d *delaunayState) insert(ip int32) error {
	t0, err := d.locate(ip)
	if err != nil {
		return err
	}
	x, y := d.px[ip], d.py[ip]

	if d.inCavity == nil {
		d.inCavity = make(map[int32]bool, 16)
		d.startMap = make(map[int32]int32, 16)
		d.endMap = make(map[int32]int32, 16)
	}
	cavity := d.cavity[:0]
	inCavity := d.inCavity
	clear(inCavity)

	// BFS over triangles whose circumcircle contains ip.
	cavity = append(cavity, t0)
	inCavity[t0] = true
	for head := 0; head < len(cavity); head++ {
		tr := &d.tris[cavity[head]]
		for i := 0; i < 3; i++ {
			nb := tr.nbr[i]
			if nb < 0 || inCavity[nb] {
				continue
			}
			nt := &d.tris[nb]
			a, b, c := nt.v[0], nt.v[1], nt.v[2]
			if incircle(d.px[a], d.py[a], d.px[b], d.py[b], d.px[c], d.py[c], x, y) > 0 {
				inCavity[nb] = true
				cavity = append(cavity, nb)
			}
		}
	}

	// Collect boundary edges (a,b) with their outside triangles.
	type bedge struct {
		a, b    int32
		outside int32
	}
	var boundary []bedge
	for _, ti := range cavity {
		tr := &d.tris[ti]
		for i := 0; i < 3; i++ {
			nb := tr.nbr[i]
			if nb >= 0 && inCavity[nb] {
				continue
			}
			boundary = append(boundary, bedge{a: tr.v[(i+1)%3], b: tr.v[(i+2)%3], outside: nb})
		}
	}
	if len(boundary) < 3 {
		return fmt.Errorf("mesh: degenerate cavity (%d boundary edges) at point %d", len(boundary), ip)
	}

	// Kill cavity triangles.
	for _, ti := range cavity {
		d.tris[ti].dead = true
		d.free = append(d.free, ti)
	}

	// Create one new triangle per boundary edge: (ip, a, b) is CCW because
	// the boundary winds CCW around the cavity and ip lies inside it.
	startMap, endMap := d.startMap, d.endMap
	clear(startMap)
	clear(endMap)
	newTris := make([]int32, len(boundary))
	for i, e := range boundary {
		nt := d.alloc(dtri{v: [3]int32{ip, e.a, e.b}, nbr: [3]int32{e.outside, -1, -1}})
		newTris[i] = nt
		startMap[e.a] = nt
		endMap[e.b] = nt
		// Fix the outside triangle's back-pointer.
		if e.outside >= 0 {
			ot := &d.tris[e.outside]
			for j := 0; j < 3; j++ {
				oa, ob := ot.v[(j+1)%3], ot.v[(j+2)%3]
				if oa == e.b && ob == e.a {
					ot.nbr[j] = nt
				}
			}
		}
	}
	// Stitch new triangles to each other:
	// triangle (ip, a, b): edge opposite v[1]=a is (b, ip) -> shared with
	// the triangle whose boundary edge starts at b; edge opposite v[2]=b
	// is (ip, a) -> shared with the triangle whose boundary edge ends at a.
	for i, e := range boundary {
		nt := &d.tris[newTris[i]]
		nxt, ok := startMap[e.b]
		if !ok {
			return fmt.Errorf("mesh: broken cavity boundary at vertex %d", e.b)
		}
		nt.nbr[1] = nxt
		prv, ok := endMap[e.a]
		if !ok {
			return fmt.Errorf("mesh: broken cavity boundary at vertex %d", e.a)
		}
		nt.nbr[2] = prv
	}
	d.last = newTris[0]
	d.cavity = cavity[:0]
	return nil
}

// Delaunay2D triangulates the 2D points of ps and returns the edge graph.
func Delaunay2D(ps *geom.PointSet) (*graph.Graph, error) {
	if ps.Dim != 2 {
		return nil, fmt.Errorf("mesh: Delaunay2D needs dim 2, got %d", ps.Dim)
	}
	return delaunay2D(ps)
}
