// Package experiments reproduces the paper's evaluation (§5): the
// instance registry mirrors the benchmark meshes of §5.2.3 with synthetic
// analogs (see DESIGN.md for the mapping), and one driver per table and
// figure regenerates the corresponding rows/series at a configurable
// scale.
package experiments

import (
	"fmt"
	"sync"

	"geographer/internal/baselines"
	"geographer/internal/core"
	"geographer/internal/mesh"
	"geographer/internal/partition"
)

// Class labels mirror the three instance classes of Figure 2.
const (
	Class2D      = "2D"   // DIMACS-style 2D meshes
	ClassClimate = "2.5D" // climate meshes with node weights
	Class3D      = "3D"   // alya + 3D Delaunay analogs
)

// Instance is a generatable benchmark mesh. SizeFactor scales the
// requested n so the collection spans sizes like the paper's (e.g.
// alyaTestCaseB is ~3× alyaTestCaseA there).
type Instance struct {
	Name       string
	Class      string
	Gen        func(n int, seed int64) (*mesh.Mesh, error)
	Seed       int64
	SizeFactor float64
}

// Registry returns the analogs of the paper's §5.2.3 collection. The
// paper instance each analog stands in for is given in the name; the size
// factors mirror the relative sizes of the original instances.
func Registry() []Instance {
	return []Instance{
		// 2D DIMACS class.
		{Name: "hugetric", Class: Class2D, Gen: mesh.GenRefinedTri, Seed: 1, SizeFactor: 0.7},
		{Name: "hugetrace", Class: Class2D, Gen: mesh.GenRefinedTri, Seed: 2, SizeFactor: 1.6},
		{Name: "hugebubbles", Class: Class2D, Gen: mesh.GenBubbles, Seed: 3, SizeFactor: 2.1},
		{Name: "333SP", Class: Class2D, Gen: mesh.GenAirfoil, Seed: 4, SizeFactor: 0.37},
		{Name: "AS365", Class: Class2D, Gen: mesh.GenAirfoil, Seed: 5, SizeFactor: 0.38},
		{Name: "M6", Class: Class2D, Gen: mesh.GenAirfoil, Seed: 6, SizeFactor: 0.35},
		{Name: "NACA0015", Class: Class2D, Gen: mesh.GenAirfoil, Seed: 7, SizeFactor: 0.1},
		{Name: "NLR", Class: Class2D, Gen: mesh.GenAirfoil, Seed: 8, SizeFactor: 0.42},
		{Name: "rgg", Class: Class2D, Gen: func(n int, s int64) (*mesh.Mesh, error) { return mesh.GenRGG2D(n, s, 13) }, Seed: 9, SizeFactor: 1.0},
		{Name: "delaunay2d", Class: Class2D, Gen: mesh.GenDelaunayUniform2D, Seed: 10, SizeFactor: 1.7},
		// 2.5D climate class.
		{Name: "fesom-f2glo04", Class: ClassClimate, Gen: mesh.GenClimate, Seed: 11, SizeFactor: 0.6},
		{Name: "fesom-fron", Class: ClassClimate, Gen: mesh.GenClimate, Seed: 12, SizeFactor: 0.5},
		{Name: "fesom-jigsaw", Class: ClassClimate, Gen: mesh.GenClimate, Seed: 13, SizeFactor: 1.4},
		// 3D class.
		{Name: "alyaTestCaseA", Class: Class3D, Gen: mesh.GenTube3D, Seed: 14, SizeFactor: 1.0},
		{Name: "alyaTestCaseB", Class: Class3D, Gen: mesh.GenTube3D, Seed: 15, SizeFactor: 3.1},
		{Name: "delaunay3d", Class: Class3D, Gen: mesh.GenDelaunay3D, Seed: 16, SizeFactor: 0.8},
		{Name: "rdg-3d", Class: Class3D, Gen: mesh.GenDelaunay3D, Seed: 17, SizeFactor: 0.4},
	}
}

// ByClass filters the registry.
func ByClass(class string) []Instance {
	var out []Instance
	for _, in := range Registry() {
		if in.Class == class {
			out = append(out, in)
		}
	}
	return out
}

// ScaledN applies the instance's size factor to a base size (≥ 500 so
// tiny factors stay meaningful at quick scale).
func (in Instance) ScaledN(base int) int {
	if in.SizeFactor <= 0 {
		return base
	}
	n := int(float64(base) * in.SizeFactor)
	if n < 500 {
		n = 500
	}
	return n
}

// meshCache avoids regenerating identical meshes across experiments.
var meshCache sync.Map // key string -> *mesh.Mesh

// Materialize generates (or fetches from cache) the instance at size n.
func (in Instance) Materialize(n int) (*mesh.Mesh, error) {
	key := fmt.Sprintf("%s/%d/%d", in.Name, n, in.Seed)
	if v, ok := meshCache.Load(key); ok {
		return v.(*mesh.Mesh), nil
	}
	m, err := in.Gen(n, in.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Name, err)
	}
	m.Name = in.Name
	meshCache.Store(key, m)
	return m, nil
}

// Scale controls experiment sizes; the defaults are the paper's setup
// shrunk ~1000× to laptop scale (see DESIGN.md substitutions).
type Scale struct {
	Table2N    int // vertices for Table 2 instances (paper: 1M–31M)
	Table1N    int // vertices for Table 1 instances (paper: 14M–2B)
	KTable2    int // paper: 64
	KTable1    int // paper: 1024
	PerRank    int // weak-scaling local size (paper: 250 000)
	WeakMaxP   int // largest p=k of the weak-scaling series (paper: 8192)
	StrongN    int // strong-scaling graph size (paper: 2B)
	StrongMaxK int // largest k of the strong-scaling series (paper: 16384)
	Fig1N      int // Figure 1 rendering size
	SpMVIters  int // SpMV averaging iterations (paper: 100)
	Repeats    int // repetitions per measurement (paper: 5)

	// Soak grid (runexp -exp soak): streaming sessions at up to SoakN
	// points over up to SoakMaxP simulated ranks with SoakK/SoakMaxK
	// blocks, SoakSteps warm repartition steps per cell.
	SoakN     int
	SoakK     int
	SoakMaxK  int
	SoakMaxP  int
	SoakSteps int

	// Highdim grid (runexp -exp highdim): Gaussian-mixture clustering in
	// feature space at d ∈ {8, 16, 64} — HighdimN points, HighdimK
	// blocks (= mixture components), HighdimP simulated ranks,
	// HighdimSteps warm steps per cell.
	HighdimN     int
	HighdimK     int
	HighdimP     int
	HighdimSteps int
}

// DefaultScale is used by cmd/runexp.
func DefaultScale() Scale {
	return Scale{
		Table2N:    20000,
		Table1N:    120000,
		KTable2:    64,
		KTable1:    256,
		PerRank:    4000,
		WeakMaxP:   64,
		StrongN:    150000,
		StrongMaxK: 256,
		Fig1N:      12000,
		SpMVIters:  20,
		Repeats:    1,
		SoakN:      2_000_000,
		SoakK:      256,
		SoakMaxK:   512,
		SoakMaxP:   4096,
		SoakSteps:  3,

		HighdimN:     60000,
		HighdimK:     16,
		HighdimP:     16,
		HighdimSteps: 3,
	}
}

// QuickScale keeps unit tests and smoke benches fast.
func QuickScale() Scale {
	return Scale{
		Table2N:    2500,
		Table1N:    6000,
		KTable2:    16,
		KTable1:    32,
		PerRank:    800,
		WeakMaxP:   8,
		StrongN:    5000,
		StrongMaxK: 32,
		Fig1N:      2000,
		SpMVIters:  3,
		Repeats:    1,
		SoakN:      50000,
		SoakK:      16,
		SoakMaxK:   32,
		SoakMaxP:   64,
		SoakSteps:  2,

		HighdimN:     6000,
		HighdimK:     8,
		HighdimP:     4,
		HighdimSteps: 2,
	}
}

// Tools returns the partitioners of the evaluation in the paper's
// presentation order: Geographer (geoKmeans) and the Zoltan competitors.
func Tools() []partition.Distributed {
	return []partition.Distributed{
		core.New(seededConfig()),
		baselines.MultiJagged(),
		baselines.RCB(),
		baselines.RIB(),
		baselines.HSFC{},
	}
}

// TableTools returns the four tools shown in Tables 1 and 2 (the paper
// omits RIB there).
func TableTools() []partition.Distributed {
	return []partition.Distributed{
		core.New(seededConfig()),
		baselines.HSFC{},
		baselines.MultiJagged(),
		baselines.RCB(),
	}
}
