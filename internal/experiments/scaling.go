package experiments

import (
	"fmt"
	"io"
	"time"

	"geographer/internal/core"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// ScalePoint is one point of a scaling series.
type ScalePoint struct {
	Tool         string
	P, K, N      int
	Seconds      float64 // wall clock on this host (not a scaling signal)
	ModelSeconds float64 // modeled parallel time — the scaling shape
}

// Fig3a reproduces the weak-scaling experiment (Figure 3a): the
// DelaunayX series with p = k doubling from 4 up to sc.WeakMaxP while the
// local size stays at sc.PerRank points per process.
func Fig3a(w io.Writer, sc Scale) ([]ScalePoint, error) {
	var out []ScalePoint
	fmt.Fprintf(w, "Fig. 3a: weak scaling on the Delaunay series (%d points per process)\n", sc.PerRank)
	fmt.Fprintf(w, "%6s %10s  %-12s %12s %14s\n", "p=k", "n", "tool", "wall[s]", "modeled[s]")
	for p := 4; p <= sc.WeakMaxP; p *= 2 {
		n := p * sc.PerRank
		m, err := mesh.GenDelaunayUniform2D(n, 1000+int64(p))
		if err != nil {
			return nil, err
		}
		for _, tool := range Tools() {
			pt, err := scaleRun(m, tool, p, p)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
			fmt.Fprintf(w, "%6d %10d  %-12s %12.3f %14.4g\n", p, n, pt.Tool, pt.Seconds, pt.ModelSeconds)
		}
	}
	return out, nil
}

// Fig3b reproduces the strong-scaling experiment (Figure 3b): the largest
// Delaunay graph partitioned into k = p blocks for doubling k up to
// sc.StrongMaxK.
func Fig3b(w io.Writer, sc Scale) ([]ScalePoint, error) {
	var out []ScalePoint
	m, err := mesh.GenDelaunayUniform2D(sc.StrongN, 77)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Fig. 3b: strong scaling on delaunay n=%d\n", sc.StrongN)
	fmt.Fprintf(w, "%6s  %-12s %12s %14s\n", "p=k", "tool", "wall[s]", "modeled[s]")
	for k := sc.StrongMaxK / 8; k <= sc.StrongMaxK; k *= 2 {
		if k < 2 {
			continue
		}
		for _, tool := range Tools() {
			pt, err := scaleRun(m, tool, k, k)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
			fmt.Fprintf(w, "%6d  %-12s %12.3f %14.4g\n", k, pt.Tool, pt.Seconds, pt.ModelSeconds)
		}
	}
	return out, nil
}

func scaleRun(m *mesh.Mesh, tool partition.Distributed, k, p int) (ScalePoint, error) {
	world := mpi.NewWorld(p)
	t0 := time.Now()
	if _, err := partition.Run(world, m.Points, k, tool); err != nil {
		return ScalePoint{}, err
	}
	wall := time.Since(t0).Seconds()
	comp, comm := world.CostModel().ModeledTime(world.Stats())
	return ScalePoint{Tool: tool.Name(), P: p, K: k, N: m.N(), Seconds: wall, ModelSeconds: comp + comm}, nil
}

// ComponentShare is the per-phase share of Geographer's running time
// (paper §5.3.2: Hilbert indexing, redistribution, k-means).
type ComponentShare struct {
	P, K          int
	SFCSeconds    float64
	SortSeconds   float64
	KMeansSeconds float64
	SFCShare      float64
	SortShare     float64
	KMeansShare   float64

	// Assignment-kernel throughput: distance evaluations performed and
	// their rate over the k-means phase — the number perf PRs report
	// against (the kernels are the dominant cost of that phase).
	DistCalcs int64
	MDistRate float64 // million distance evaluations per second
}

// Components reproduces the §5.3.2 breakdown at a small and a large
// process count.
func Components(w io.Writer, sc Scale) ([]ComponentShare, error) {
	var out []ComponentShare
	fmt.Fprintln(w, "Components of Geographer's running time (§5.3.2)")
	fmt.Fprintf(w, "%6s %6s %12s %12s %12s %8s %8s %8s %10s\n",
		"p", "k", "sfc[s]", "redist[s]", "kmeans[s]", "sfc%", "redist%", "kmeans%", "Mdist/s")
	for _, p := range []int{sc.WeakMaxP / 4, sc.WeakMaxP} {
		if p < 2 {
			continue
		}
		n := p * sc.PerRank
		m, err := mesh.GenDelaunayUniform2D(n, 2000+int64(p))
		if err != nil {
			return nil, err
		}
		bkm := core.New(seededConfig())
		world := mpi.NewWorld(p)
		if _, err := partition.Run(world, m.Points, p, bkm); err != nil {
			return nil, err
		}
		info := bkm.LastInfo()
		total := info.SFCSeconds + info.SortSeconds + info.KMeansSeconds
		if total <= 0 {
			total = 1
		}
		cs := ComponentShare{
			P: p, K: p,
			SFCSeconds: info.SFCSeconds, SortSeconds: info.SortSeconds, KMeansSeconds: info.KMeansSeconds,
			SFCShare:    info.SFCSeconds / total,
			SortShare:   info.SortSeconds / total,
			KMeansShare: info.KMeansSeconds / total,
			DistCalcs:   info.DistCalcs,
		}
		if info.KMeansSeconds > 0 {
			cs.MDistRate = float64(info.DistCalcs) / info.KMeansSeconds / 1e6
		}
		out = append(out, cs)
		fmt.Fprintf(w, "%6d %6d %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %10.1f\n",
			p, p, cs.SFCSeconds, cs.SortSeconds, cs.KMeansSeconds,
			100*cs.SFCShare, 100*cs.SortShare, 100*cs.KMeansShare, cs.MDistRate)
	}
	return out, nil
}

// AblationRow measures one configuration of the design-choice ablation.
type AblationRow struct {
	Config     string
	Seconds    float64
	Cut        int64
	TotComm    int64
	Imbalance  float64
	DistCalcs  int64
	Iterations int
}

// Ablation quantifies the §4 design choices: Hamerly bounds, bounding-box
// pruning, influence erosion, sampled initialization, and the SFC
// bootstrap, each switched off individually against the full
// configuration. (The paper motivates these choices; this experiment is
// our addition that measures them.)
func Ablation(w io.Writer, sc Scale) ([]AblationRow, error) {
	in := Registry()[0]
	m, err := in.Materialize(sc.Table2N)
	if err != nil {
		return nil, err
	}
	k := sc.KTable2
	p := 4

	base := seededConfig()
	configs := []struct {
		name string
		mod  func(c core.Config) core.Config
	}{
		{"full", func(c core.Config) core.Config { return c }},
		{"no-bounds", func(c core.Config) core.Config { c.Bounds = core.BoundsNone; return c }},
		{"elkan", func(c core.Config) core.Config { c.Bounds = core.BoundsElkan; return c }},
		{"no-bbox", func(c core.Config) core.Config { c.BBoxPruning = false; return c }},
		{"no-erosion", func(c core.Config) core.Config { c.Erosion = false; return c }},
		{"no-sampling", func(c core.Config) core.Config { c.SampledInit = false; return c }},
		{"random-init", func(c core.Config) core.Config { c.SFCBootstrap = false; return c }},
	}
	var out []AblationRow
	fmt.Fprintf(w, "Ablation on %s (n=%d, k=%d, p=%d)\n", m.Name, m.N(), k, p)
	fmt.Fprintf(w, "%-14s %10s %10s %12s %10s %12s %6s\n",
		"config", "time[s]", "cut", "ΣcommVol", "imbalance", "distCalcs", "iters")
	for _, cfgSpec := range configs {
		bkm := core.New(cfgSpec.mod(base))
		row, err := RunOne(m, bkm, k, p, 0, sc.Repeats)
		if err != nil {
			return nil, err
		}
		info := bkm.LastInfo()
		ar := AblationRow{
			Config: cfgSpec.name, Seconds: row.Seconds, Cut: row.Cut,
			TotComm: row.TotComm, Imbalance: row.Imbalance,
			DistCalcs: info.DistCalcs, Iterations: info.Iterations,
		}
		out = append(out, ar)
		fmt.Fprintf(w, "%-14s %10.3f %10d %12d %10.4f %12d %6d\n",
			ar.Config, ar.Seconds, ar.Cut, ar.TotComm, ar.Imbalance, ar.DistCalcs, ar.Iterations)
	}
	return out, nil
}
