package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"geographer/internal/geom"
)

// The generators below produce synthetic analogs of the paper's instance
// classes (§5.2.3). Every generator is deterministic in (n, seed).
//
//	paper instance            analog here
//	--------------------------------------------------------------
//	delaunayX series          GenDelaunayUniform2D
//	hugetric / hugetrace      GenRefinedTri (refinement-front density)
//	hugebubbles               GenBubbles (rim-concentrated density)
//	333SP/AS365/M6/NACA/NLR   GenAirfoil (boundary-layer FEM grading)
//	rgg_n series              GenRGG2D
//	fesom 2.5D climate        GenClimate (masked ocean + layer weights)
//	3D Delaunay (Funke gen.)  GenDelaunay3D (uniform cube, kNN adjacency)
//	alyaTestCaseA/B           GenTube3D (branching respiratory tubes)

// generators names the generators for Generate, in the order Kinds
// lists them.
var generators = []struct {
	kind string
	gen  func(n int, seed int64) (*Mesh, error)
}{
	{"delaunay2d", GenDelaunayUniform2D},
	{"refined", GenRefinedTri},
	{"bubbles", GenBubbles},
	{"airfoil", GenAirfoil},
	{"rgg", func(n int, seed int64) (*Mesh, error) { return GenRGG2D(n, seed, 13) }},
	{"climate", GenClimate},
	{"delaunay3d", GenDelaunay3D},
	{"tube3d", GenTube3D},
}

// Kinds returns the kinds Generate accepts, "|"-separated.
func Kinds() string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.kind
	}
	return strings.Join(names, "|")
}

// Generate produces the synthetic mesh of a kind (see Kinds) with about n
// vertices, deterministic in (kind, n, seed). It rejects n < 0 and
// unknown kinds.
func Generate(kind string, n int, seed int64) (*Mesh, error) {
	if n < 0 {
		return nil, fmt.Errorf("mesh: size n=%d is negative", n)
	}
	for _, g := range generators {
		if g.kind == kind {
			return g.gen(n, seed)
		}
	}
	return nil, fmt.Errorf("mesh: unknown kind %q (want %s)", kind, Kinds())
}

// GenDelaunayUniform2D triangulates n uniform random points in the unit
// square — the DelaunayX series used in the scaling experiments.
func GenDelaunayUniform2D(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSet(2, n)
	for i := 0; i < n; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 1)
	}
	g, err := Delaunay2D(ps)
	if err != nil {
		return nil, err
	}
	return &Mesh{Name: fmt.Sprintf("delaunay2d-%d", n), Points: ps, G: g}, nil
}

// samplePoints draws n points from a density mixture: with probability
// bg uniform over the box, otherwise a Gaussian around a random kernel
// center. This mimics adaptively refined meshes, whose vertex density
// concentrates where the numerical simulation refined.
func samplePoints(n int, rng *rand.Rand, bg float64, kernels []geom.Point, sigma []float64, lo, hi geom.Point) *geom.PointSet {
	ps := geom.NewPointSet(2, n)
	for len(ps.Coords)/2 < n {
		var p geom.Point
		if rng.Float64() < bg || len(kernels) == 0 {
			p = geom.Point{lo[0] + rng.Float64()*(hi[0]-lo[0]), lo[1] + rng.Float64()*(hi[1]-lo[1])}
		} else {
			k := rng.Intn(len(kernels))
			p = geom.Point{
				kernels[k][0] + rng.NormFloat64()*sigma[k],
				kernels[k][1] + rng.NormFloat64()*sigma[k],
			}
			if p[0] < lo[0] || p[0] > hi[0] || p[1] < lo[1] || p[1] > hi[1] {
				continue
			}
		}
		ps.Append(p, 1)
	}
	return ps
}

// GenRefinedTri produces a hugetric/hugetrace-style adaptively refined
// triangle mesh: vertex density follows "refinement fronts" laid out as
// random walks across the domain.
func GenRefinedTri(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	var kernels []geom.Point
	var sigma []float64
	walks := 3 + rng.Intn(3)
	for w := 0; w < walks; w++ {
		x, y := rng.Float64(), rng.Float64()
		dir := rng.Float64() * 2 * math.Pi
		steps := 15 + rng.Intn(15)
		for s := 0; s < steps; s++ {
			kernels = append(kernels, geom.Point{x, y})
			sigma = append(sigma, 0.015+0.02*rng.Float64())
			dir += rng.NormFloat64() * 0.4
			x += 0.04 * math.Cos(dir)
			y += 0.04 * math.Sin(dir)
			if x < 0 || x > 1 || y < 0 || y > 1 {
				dir += math.Pi / 2
				x = clamp(x, 0, 1)
				y = clamp(y, 0, 1)
			}
		}
	}
	ps := samplePoints(n, rng, 0.35, kernels, sigma, geom.Point{0, 0}, geom.Point{1, 1})
	g, err := Delaunay2D(ps)
	if err != nil {
		return nil, err
	}
	return &Mesh{Name: fmt.Sprintf("refinedtri-%d", n), Points: ps, G: g}, nil
}

// GenBubbles produces a hugebubbles-style mesh: density concentrated on
// the rims of random circles ("bubbles") plus a uniform background.
func GenBubbles(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	type bubble struct {
		cx, cy, r float64
	}
	bubbles := make([]bubble, 4+rng.Intn(4))
	for i := range bubbles {
		bubbles[i] = bubble{0.15 + 0.7*rng.Float64(), 0.15 + 0.7*rng.Float64(), 0.05 + 0.15*rng.Float64()}
	}
	ps := geom.NewPointSet(2, n)
	for ps.Len() < n {
		if rng.Float64() < 0.3 {
			ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 1)
			continue
		}
		b := bubbles[rng.Intn(len(bubbles))]
		ang := rng.Float64() * 2 * math.Pi
		rad := b.r + rng.NormFloat64()*0.01
		p := geom.Point{b.cx + rad*math.Cos(ang), b.cy + rad*math.Sin(ang)}
		if p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1 {
			continue
		}
		ps.Append(p, 1)
	}
	g, err := Delaunay2D(ps)
	if err != nil {
		return nil, err
	}
	return &Mesh{Name: fmt.Sprintf("bubbles-%d", n), Points: ps, G: g}, nil
}

// naca0012Thickness returns the half-thickness of a NACA0012 airfoil at
// chord position x ∈ [0,1].
func naca0012Thickness(x float64) float64 {
	const t = 0.12
	return 5 * t * (0.2969*math.Sqrt(x) - 0.1260*x - 0.3516*x*x + 0.2843*x*x*x - 0.1015*x*x*x*x)
}

// GenAirfoil produces an FEM-style mesh in the class of the paper's
// 333SP/AS365/M6/NACA0015/NLR instances: a boundary-layer point grading
// around a NACA0012 profile inside a far-field box, with the airfoil body
// cut out.
func GenAirfoil(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	lo := geom.Point{-0.8, -0.8}
	hi := geom.Point{1.8, 0.8}
	insideBody := func(p geom.Point) bool {
		if p[0] <= 0 || p[0] >= 1 {
			return false
		}
		return math.Abs(p[1]) < naca0012Thickness(p[0])
	}
	ps := geom.NewPointSet(2, n)
	for ps.Len() < n {
		var p geom.Point
		if rng.Float64() < 0.25 {
			p = geom.Point{lo[0] + rng.Float64()*(hi[0]-lo[0]), lo[1] + rng.Float64()*(hi[1]-lo[1])}
		} else {
			// Boundary layer: a point on the profile offset along the normal
			// with exponentially decaying distance.
			x := rng.Float64()
			side := 1.0
			if rng.Intn(2) == 0 {
				side = -1
			}
			off := rng.ExpFloat64() * 0.06
			p = geom.Point{x + rng.NormFloat64()*0.02, side * (naca0012Thickness(x) + off)}
		}
		if p[0] < lo[0] || p[0] > hi[0] || p[1] < lo[1] || p[1] > hi[1] || insideBody(p) {
			continue
		}
		ps.Append(p, 1)
	}
	g, err := Delaunay2D(ps)
	if err != nil {
		return nil, err
	}
	return &Mesh{Name: fmt.Sprintf("airfoil-%d", n), Points: ps, G: g}, nil
}

// GenRGG2D produces a random geometric graph with the given expected
// average degree (the DIMACS rgg_n series; degree ≈ 13 there).
func GenRGG2D(n int, seed int64, avgDeg float64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSet(2, n)
	for i := 0; i < n; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64()}, 1)
	}
	g, err := RadiusGraph(ps, RGGRadiusForDegree(n, 2, avgDeg))
	if err != nil {
		return nil, err
	}
	m := &Mesh{Name: fmt.Sprintf("rgg2d-%d", n), Points: ps, G: g}
	// RGGs at this degree are connected w.h.p. but not surely; keep the
	// giant component like the DIMACS preprocessing does.
	return LargestComponent(m), nil
}

// GenClimate produces a fesom-style 2.5D climate mesh: an ocean domain
// with continent-shaped holes, Delaunay triangulated, long hole-spanning
// edges removed, node weights set to a synthetic number of vertical ocean
// layers (deep ocean heavy, coastal shelf light) — the 2.5D partitioning
// problem from the paper's introduction.
func GenClimate(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	type ellipse struct {
		cx, cy, rx, ry, rot float64
	}
	continents := make([]ellipse, 3+rng.Intn(3))
	for i := range continents {
		continents[i] = ellipse{
			cx: 0.2 + 1.6*rng.Float64(), cy: 0.15 + 0.7*rng.Float64(),
			rx: 0.08 + 0.22*rng.Float64(), ry: 0.05 + 0.15*rng.Float64(),
			rot: rng.Float64() * math.Pi,
		}
	}
	// landDist < 0 inside a continent; otherwise approximate normalized
	// distance to the nearest continent.
	landDist := func(p geom.Point) float64 {
		best := math.Inf(1)
		for _, e := range continents {
			dx, dy := p[0]-e.cx, p[1]-e.cy
			c, s := math.Cos(e.rot), math.Sin(e.rot)
			u, v := (dx*c+dy*s)/e.rx, (-dx*s+dy*c)/e.ry
			d := math.Sqrt(u*u+v*v) - 1
			if d < best {
				best = d
			}
		}
		return best
	}
	ps := geom.NewPointSet(2, n)
	ps.Weight = make([]float64, 0, n)
	for ps.Len() < n {
		p := geom.Point{2 * rng.Float64(), rng.Float64()}
		d := landDist(p)
		if d <= 0 {
			continue // on land
		}
		// Vertical layers: 5 on the shelf up to ~64 in the open ocean.
		depth := math.Min(1, d/0.4)
		layers := 5 + math.Floor(59*depth) + float64(rng.Intn(3))
		ps.Append(p, layers)
	}
	g, err := Delaunay2D(ps)
	if err != nil {
		return nil, err
	}
	m := &Mesh{Name: fmt.Sprintf("climate-%d", n), Points: ps, G: g}
	m = FilterLongEdges(m, 4)
	m = LargestComponent(m)
	m.Name = fmt.Sprintf("climate-%d", n)
	return m, nil
}

// GenDelaunay3D produces the 3D Delaunay analog: n uniform points in the
// unit cube with symmetric kNN adjacency (k=10 → mean degree ≈ 14, the
// degree of a 3D Delaunay triangulation; see DESIGN.md substitution).
func GenDelaunay3D(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSet(3, n)
	for i := 0; i < n; i++ {
		ps.Append(geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}, 1)
	}
	g, err := KNNGraph(ps, 10)
	if err != nil {
		return nil, err
	}
	return &Mesh{Name: fmt.Sprintf("delaunay3d-%d", n), Points: ps, G: g}, nil
}

// GenTube3D produces an alya-style mesh (the PRACE respiratory-system
// test cases): points sampled around a branching tube skeleton in 3D,
// connected by symmetric kNN adjacency.
func GenTube3D(n int, seed int64) (*Mesh, error) {
	rng := rand.New(rand.NewSource(seed))
	type segment struct {
		a, b   geom.Point
		radius float64
	}
	var segs []segment
	var grow func(from geom.Point, dir geom.Point, length, radius float64, depth int)
	grow = func(from geom.Point, dir geom.Point, length, radius float64, depth int) {
		to := from.Add(dir.Scale(length))
		segs = append(segs, segment{from, to, radius})
		if depth == 0 {
			return
		}
		for b := 0; b < 2; b++ {
			nd := geom.Point{
				dir[0] + rng.NormFloat64()*0.6,
				dir[1] + rng.NormFloat64()*0.6,
				dir[2] + rng.NormFloat64()*0.3,
			}
			norm := math.Sqrt(nd.Dot(nd, 3))
			if norm == 0 {
				continue
			}
			grow(to, nd.Scale(1/norm), length*0.75, radius*0.7, depth-1)
		}
	}
	grow(geom.Point{0.5, 0.5, 1.0}, geom.Point{0, 0, -1}, 0.3, 0.05, 5)

	totalLen := 0.0
	for _, s := range segs {
		totalLen += geom.Dist(s.a, s.b, 3)
	}
	ps := geom.NewPointSet(3, n)
	for ps.Len() < n {
		// Pick a segment weighted by length.
		pick := rng.Float64() * totalLen
		var seg segment
		for _, s := range segs {
			l := geom.Dist(s.a, s.b, 3)
			if pick <= l {
				seg = s
				break
			}
			pick -= l
		}
		if seg.radius == 0 {
			seg = segs[len(segs)-1]
		}
		t := rng.Float64()
		p := seg.a.Add(seg.b.Sub(seg.a).Scale(t))
		for d := 0; d < 3; d++ {
			p[d] += rng.NormFloat64() * seg.radius
		}
		ps.Append(p, 1)
	}
	g, err := KNNGraph(ps, 10)
	if err != nil {
		return nil, err
	}
	m := &Mesh{Name: fmt.Sprintf("tube3d-%d", n), Points: ps, G: g}
	return LargestComponent(m), nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
