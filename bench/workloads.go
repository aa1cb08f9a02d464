package main

import (
	"fmt"
	"math/rand"

	"geographer/internal/mesh"
)

// Fixed protocol constants (README.md, "Protocol").
const (
	benchProcs = 2    // GOMAXPROCS of every child
	benchRanks = 2    // simulated ranks: never more than cores when timing
	benchEps   = 0.03 // balance constraint ε
)

// size is the part of a workload that the smoke test shrinks.
type size struct {
	N    int // points per dataset
	M    int // timed ops per pass (serve: clients·bursts·burstLen)
	Warm int // untimed warm-up ops, part of set-up
	// serve_tenants only: bursts per client and timesteps per burst.
	Bursts, BurstLen int
}

// workload names one benchmark workload. Later issues refer to workloads
// by these names.
type workload struct {
	Name string
	Why  string
	K    int
	Full size
	// Overlap: the script's ops run concurrently (two clients), so per-op
	// times do not add up to the wall.
	Overlap bool
	// Relabel: the run seed presents the dataset under a random
	// renumbering of its points. Off where point ids steer the algorithm
	// (feature space: ids pick the initial centers), because there a
	// renumbering is a different problem, not a different presentation.
	Relabel bool
	// gen builds the datasets (geometry from the workload's fixed data
	// seed, never from the run seed).
	gen func(sz size) ([]*dataset, error)
	// run replays the workload's script once, in this process.
	run func(w *workload, sz size, in *inputs, pc passConfig) *passResult
}

var workloads = []*workload{
	{
		Name: "cold_mesh2d",
		Why:  "one-shot Partition on a 2D Delaunay mesh: the paper's headline path, the only one where sfc keys, dsort, curve seeding, sampled cold k-means, bbox pruning and the unrolled 2D kernels all run",
		K:    32, Relabel: true,
		Full: size{N: 100_000, M: 40, Warm: 2},
		gen: func(sz size) ([]*dataset, error) {
			m, err := mesh.GenDelaunayUniform2D(sz.N, 1)
			if err != nil {
				return nil, err
			}
			return []*dataset{fromMesh(m)}, nil
		},
		run: runCold,
	},
	{
		Name: "cold_feature16d",
		Why:  "one-shot Partition on a 16-D Gaussian mixture: generic strided-column kernels and seeded init, no SFC and no sort, so ingest work must not move it; the generic side of the kernel dispatch",
		K:    32,
		Full: size{N: 40_000, M: 40, Warm: 2},
		gen: func(sz size) ([]*dataset, error) {
			return []*dataset{genMixture(sz.N, 16, 1)}, nil
		},
		run: runCold,
	},
	{
		Name: "warm_stream3d",
		Why:  "one Session on a 3D mesh under a travelling load wave (UpdateWeights + Repartition): incremental carried bounds, exact reductions, 3D raw kernels and k-by-k tables, ingest bypassed",
		K:    32, Relabel: true,
		Full: size{N: 100_000, M: 60, Warm: 3},
		gen: func(sz size) ([]*dataset, error) {
			m, err := mesh.GenDelaunay3D(sz.N, 1)
			if err != nil {
				return nil, err
			}
			return []*dataset{fromMesh(m)}, nil
		},
		run: runWarm,
	},
	{
		Name: "serve_tenants",
		Why:  "HTTP handler over a disk-spilled registry, 4 tenants, 2 closed-loop clients in evict/restore bursts: engine time is small, so JSON, registry locking, checkpoint codec and spill I/O dominate",
		K:    16, Relabel: true, Overlap: true,
		Full: size{N: 40_000, M: 72, Warm: 2, Bursts: 6, BurstLen: 6},
		gen: func(sz size) ([]*dataset, error) {
			sets := make([]*dataset, serveTenants)
			for id := range sets {
				var m *mesh.Mesh
				var err error
				if id%2 == 0 {
					m, err = mesh.GenRefinedTri(sz.N, int64(11+id))
				} else {
					m, err = mesh.GenClimate(sz.N, int64(11+id))
				}
				if err != nil {
					return nil, err
				}
				sets[id] = fromMesh(m)
			}
			return sets, nil
		},
		run: runServe,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// generate builds a workload's inputs for one run seed: the fixed
// datasets, each presented under a seed-drawn relabelling (see Relabel).
func (w *workload) generate(sz size, seed int64) (*inputs, error) {
	sets, err := w.gen(sz)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.Name, err)
	}
	if w.Relabel {
		rng := rand.New(rand.NewSource(seed))
		for i, d := range sets {
			sets[i] = d.relabel(rng)
		}
	}
	return &inputs{Sets: sets}, nil
}
