package experiments

import (
	"fmt"
	"time"

	"geographer/internal/core"
	"geographer/internal/mesh"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/spmv"
)

// phaseReporter is implemented by tools that expose per-phase wall times
// (core.BalancedKMeans); baselines report no phases.
type phaseReporter interface{ LastInfo() core.Info }

// Row is one (graph, tool) measurement with the columns of the paper's
// Tables 1 and 2 plus the modeled parallel time used by the scaling
// figures.
type Row struct {
	Graph string
	N     int
	M     int64
	Tool  string
	K     int
	P     int

	Seconds      float64 // wall-clock partitioning time (all simulated ranks on this host)
	ModelSeconds float64 // α-β + op-cost modeled parallel time (scaling shape)

	// Phase wall times (tools exposing a core.Info only; zero otherwise):
	// ingest = SFC key computation + global sort/redistribution, then the
	// balanced k-means itself. BENCH_*.json entries should attribute
	// speedups to the phase that actually moved.
	SFCSeconds    float64
	SortSeconds   float64
	KMeansSeconds float64

	Cut        int64
	MaxComm    int64
	TotComm    int64
	HarmDiam   float64
	Imbalance  float64
	SpMVComm   float64 // modeled SpMV communication seconds per iteration
	SpMVWall   float64 // measured wall SpMV communication seconds per iteration
	Assignment partition.P
}

// RunOne partitions m into k blocks with the tool over p simulated ranks
// and evaluates all §2 metrics plus the SpMV benchmark.
func RunOne(m *mesh.Mesh, tool partition.Distributed, k, p, spmvIters, repeats int) (Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	row := Row{Graph: m.Name, N: m.N(), M: m.G.M(), Tool: tool.Name(), K: k, P: p}

	var part partition.P
	for rep := 0; rep < repeats; rep++ {
		world := mpi.NewWorld(p)
		t0 := time.Now()
		var err error
		part, err = partition.Run(world, m.Points, k, tool)
		if err != nil {
			return row, fmt.Errorf("%s on %s: %w", tool.Name(), m.Name, err)
		}
		row.Seconds += time.Since(t0).Seconds()
		comp, comm := world.CostModel().ModeledTime(world.Stats())
		row.ModelSeconds += comp + comm
		if pr, ok := tool.(phaseReporter); ok {
			info := pr.LastInfo()
			row.SFCSeconds += info.SFCSeconds
			row.SortSeconds += info.SortSeconds
			row.KMeansSeconds += info.KMeansSeconds
		}
	}
	row.Seconds /= float64(repeats)
	row.ModelSeconds /= float64(repeats)
	row.SFCSeconds /= float64(repeats)
	row.SortSeconds /= float64(repeats)
	row.KMeansSeconds /= float64(repeats)
	row.Assignment = part

	rep, err := metrics.Evaluate(m.G, m.Points, part.Assign, k)
	if err != nil {
		return row, fmt.Errorf("evaluate %s on %s: %w", tool.Name(), m.Name, err)
	}
	row.Cut = rep.EdgeCut
	row.MaxComm = rep.MaxCommVol
	row.TotComm = rep.TotCommVol
	row.HarmDiam = rep.HarmDiam
	row.Imbalance = rep.Imbalance

	if spmvIters > 0 {
		res, err := spmv.Benchmark(m.G, part.Assign, k, spmvIters)
		if err != nil {
			return row, fmt.Errorf("spmv for %s on %s: %w", tool.Name(), m.Name, err)
		}
		row.SpMVComm = res.ModeledCommSeconds
		row.SpMVWall = res.CommSeconds
	}
	return row, nil
}

// RunInstance runs every tool in tools on one instance.
func RunInstance(in Instance, n, k, p, spmvIters, repeats int, tools []partition.Distributed) ([]Row, error) {
	m, err := in.Materialize(n)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(tools))
	for _, tool := range tools {
		row, err := RunOne(m, tool, k, p, spmvIters, repeats)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
