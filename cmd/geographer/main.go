// Command geographer partitions a geometric mesh from the command line:
// generate (or load) a mesh, run one of the five partitioners, report the
// paper's quality metrics, and optionally render the result as SVG.
//
// Examples:
//
//	geographer -gen refined -n 20000 -k 16 -method geographer -svg out.svg
//	geographer -in mesh.ggm -k 64 -method rcb -spmv 20
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"geographer/internal/baselines"
	"geographer/internal/core"
	"geographer/internal/mesh"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/refine"
	"geographer/internal/spmv"
	"geographer/internal/viz"
)

func main() {
	var (
		gen     = flag.String("gen", "", "generate a mesh: "+mesh.Kinds())
		in      = flag.String("in", "", "load a mesh file written by genmesh")
		metis   = flag.String("metis", "", "load a METIS graph file (needs -xyz for coordinates)")
		xyz     = flag.String("xyz", "", "coordinate file accompanying -metis")
		n       = flag.Int("n", 20000, "mesh size when generating")
		seed    = flag.Int64("seed", 1, "generator / algorithm seed")
		k       = flag.Int("k", 16, "number of blocks")
		p       = flag.Int("p", 4, "number of simulated MPI ranks")
		method  = flag.String("method", "geographer", "partitioner: geographer|rcb|rib|multijagged|hsfc")
		eps     = flag.Float64("eps", 0.03, "max imbalance ε")
		strict  = flag.Bool("strict", false, "enforce ε as a hard guarantee (geographer only)")
		workers = flag.Int("workers", 0, "intra-rank kernel shards for geographer (0 = auto, 1 = serial)")
		doFM    = flag.Bool("refine", false, "apply FM boundary refinement after partitioning")
		svg     = flag.String("svg", "", "write partition SVG to this path (2D meshes)")
		spmvIt  = flag.Int("spmv", 0, "run the SpMV communication benchmark with this many iterations")
		outPart = flag.String("out", "", "write the block of each vertex, one per line")
	)
	flag.Parse()
	if *p < 1 {
		fatal(fmt.Errorf("-p %d: need at least one rank", *p))
	}
	if *k < 1 {
		fatal(fmt.Errorf("-k %d: need at least one block", *k))
	}

	var m *mesh.Mesh
	var err error
	if *metis != "" {
		if *xyz == "" {
			fatal(fmt.Errorf("-metis requires -xyz with the coordinates"))
		}
		m, err = mesh.ReadMETISFiles(*metis, *xyz)
	} else {
		m, err = obtainMesh(*gen, *in, *n, *seed)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(m)

	tool, err := selectTool(*method, *eps, *seed, *strict, *workers)
	if err != nil {
		fatal(err)
	}

	world := mpi.NewWorld(*p)
	t0 := time.Now()
	part, err := partition.Run(world, m.Points, *k, tool)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(t0)
	comp, comm := world.CostModel().ModeledTime(world.Stats())
	fmt.Printf("%s: k=%d p=%d wall=%v modeled=%.4gs (comp %.4g + comm %.4g)\n",
		tool.Name(), *k, *p, wall.Round(time.Millisecond), comp+comm, comp, comm)

	if *doFM {
		opts := refine.DefaultOptions()
		opts.Epsilon = *eps
		res, err := refine.Refine(m.G, m.Points, part.Assign, *k, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("refinement: %d moves, cut %d -> %d\n", res.Moves, res.CutBefore, res.CutAfter)
	}

	rep, err := metrics.Evaluate(m.G, m.Points, part.Assign, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("quality: %s\n", rep)
	ar := metrics.MeanAspectRatio(m.Points, part.Assign, *k)
	fmt.Printf("block shapes: mean bbox aspect ratio %.2f\n", ar)

	if bkm, ok := tool.(*core.BalancedKMeans); ok {
		info := bkm.LastInfo()
		fmt.Printf("geographer phases: sfc=%.4fs redistribute=%.4fs kmeans=%.4fs; %d iterations, %d balance rounds\n",
			info.SFCSeconds, info.SortSeconds, info.KMeansSeconds, info.Iterations, info.BalanceRounds)
	}

	if *spmvIt > 0 {
		res, err := spmv.Benchmark(m.G, part.Assign, *k, *spmvIt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spmv comm: modeled %.4g s/iter, wall %.4g s/iter, halo %d values/iter (max %d per rank)\n",
			res.ModeledCommSeconds, res.CommSeconds, res.TotalHaloValues, res.MaxHaloValues)
	}

	if *svg != "" {
		if m.Points.Dim != 2 {
			fatal(fmt.Errorf("svg output needs a 2D mesh"))
		}
		if err := viz.RenderToFile(*svg, m.Points, part.Assign, *k, viz.DefaultOptions()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}

	if *outPart != "" {
		f, err := os.Create(*outPart)
		if err != nil {
			fatal(err)
		}
		for _, b := range part.Assign {
			fmt.Fprintln(f, b)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPart)
	}
}

func obtainMesh(gen, in string, n int, seed int64) (*mesh.Mesh, error) {
	switch {
	case gen != "" && in != "":
		return nil, fmt.Errorf("use either -gen or -in, not both")
	case in != "":
		return mesh.ReadFile(in)
	case gen != "":
		return mesh.Generate(gen, n, seed)
	default:
		return nil, fmt.Errorf("specify -gen <kind> or -in <file>")
	}
}

func selectTool(method string, eps float64, seed int64, strict bool, workers int) (partition.Distributed, error) {
	switch method {
	case "geographer":
		cfg := core.DefaultConfig()
		cfg.Epsilon = eps
		cfg.Seed = seed
		cfg.Strict = strict
		cfg.Workers = workers
		return core.New(cfg), nil
	case "rcb":
		return baselines.RCB(), nil
	case "rib":
		return baselines.RIB(), nil
	case "multijagged", "mj":
		return baselines.MultiJagged(), nil
	case "hsfc", "sfc":
		return baselines.HSFC{}, nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geographer:", err)
	os.Exit(1)
}
