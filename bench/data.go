package main

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"geographer/internal/geom"
	"geographer/internal/graph"
	"geographer/internal/mesh"
)

// dataset is one generated input: points, base weights and the graph the
// quality metrics are evaluated on. The programs under test only ever see
// these arrays; the generators run in the parent, before any timing.
type dataset struct {
	Dim     int
	Coords  []float64 // flat, stride Dim
	Weights []float64 // base weights; nil = unit
	Xadj    []int64
	Adj     []int32
}

func (d *dataset) n() int { return len(d.Coords) / d.Dim }

func (d *dataset) points() *geom.PointSet {
	return &geom.PointSet{Dim: d.Dim, Coords: d.Coords, Weight: d.Weights}
}

func (d *dataset) graph() *graph.Graph {
	return &graph.Graph{N: d.n(), Xadj: d.Xadj, Adj: d.Adj}
}

func fromMesh(m *mesh.Mesh) *dataset {
	return &dataset{
		Dim:    m.Points.Dim,
		Coords: m.Points.Coords, Weights: m.Points.Weight,
		Xadj: m.G.Xadj, Adj: m.G.Adj,
	}
}

// mixtureComponents is the component count of the feature-space workload;
// the chain graph links each point to the next point of its component.
const mixtureComponents = 32

// genMixture draws an n-point Gaussian mixture in dim dimensions
// (component centers uniform in [0,10]^dim, unit noise, components
// assigned round-robin) with the chain graph i ↔ i+mixtureComponents: a
// clustering that keeps components together cuts few chain edges, which
// gives the mesh-free workload a communication volume.
func genMixture(n, dim int, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	const m = mixtureComponents
	centers := make([]float64, m*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 10
	}
	d := &dataset{Dim: dim, Coords: make([]float64, n*dim)}
	for i := 0; i < n; i++ {
		c := centers[(i%m)*dim : (i%m+1)*dim]
		for a := 0; a < dim; a++ {
			d.Coords[i*dim+a] = c[a] + rng.NormFloat64()
		}
	}
	d.Xadj = make([]int64, n+1)
	for i := 0; i < n; i++ {
		if i-m >= 0 {
			d.Adj = append(d.Adj, int32(i-m))
		}
		if i+m < n {
			d.Adj = append(d.Adj, int32(i+m))
		}
		d.Xadj[i+1] = int64(len(d.Adj))
	}
	return d
}

// relabel presents the same dataset under a random renumbering of its
// points (graph relabelled to match). This is everything the run seed
// changes — see README.md, "What the seed varies": the geometry is a fixed
// data file, the labelling (hence the scatter over ranks, the memory
// layout and the exchange pattern) is the seeded part.
func (d *dataset) relabel(rng *rand.Rand) *dataset {
	n := d.n()
	newOf := rng.Perm(n) // newOf[old] = new
	oldOf := make([]int, n)
	for o, nw := range newOf {
		oldOf[nw] = o
	}
	out := &dataset{Dim: d.Dim, Coords: make([]float64, len(d.Coords)), Xadj: make([]int64, n+1), Adj: make([]int32, 0, len(d.Adj))}
	if d.Weights != nil {
		out.Weights = make([]float64, n)
	}
	for nw, o := range oldOf {
		copy(out.Coords[nw*d.Dim:(nw+1)*d.Dim], d.Coords[o*d.Dim:(o+1)*d.Dim])
		if d.Weights != nil {
			out.Weights[nw] = d.Weights[o]
		}
		start := len(out.Adj)
		for _, v := range d.Adj[d.Xadj[o]:d.Xadj[o+1]] {
			out.Adj = append(out.Adj, int32(newOf[v]))
		}
		row := out.Adj[start:]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		out.Xadj[nw+1] = int64(len(out.Adj))
	}
	return out
}

// waveWeights writes the load of timestep step into out: a sine wave
// travelling along x over the base weights, advancing wavePhaseStep per
// step, the dynamic-load pattern of the paper's §1 simulations.
func waveWeights(d *dataset, step int, phase0 float64, out []float64) {
	phase := phase0 + wavePhaseStep*float64(step)
	for i := range out {
		base := 1.0
		if d.Weights != nil {
			base = d.Weights[i]
		}
		out[i] = base * (1 + 0.5*math.Sin(2*math.Pi*1.5*d.Coords[i*d.Dim]-phase))
	}
}

const wavePhaseStep = 0.15

// inputs is what one workload's children load: its datasets (four tenants
// for serve_tenants, one otherwise), already relabelled by the run seed.
type inputs struct {
	Sets []*dataset
}

func saveInputs(path string, in *inputs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(in); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return f.Close()
}

func loadInputs(path string) (*inputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in := new(inputs)
	if err := gob.NewDecoder(f).Decode(in); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return in, nil
}
