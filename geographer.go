// Package geographer is a Go implementation of Geographer, the balanced
// k-means mesh partitioner of von Looz, Tzovas and Meyerhenke ("Balanced
// k-means for Parallel Geometric Partitioning", ICPP 2018), together with
// the geometric partitioners it is evaluated against (RCB, RIB,
// MultiJagged, Hilbert-SFC) and the full evaluation harness of the paper.
//
// This root package is the stable facade: plain-slice inputs, no internal
// types. The implementation lives under internal/ (see DESIGN.md for the
// architecture and README.md for a tour).
//
// Quick start:
//
//	blocks, err := geographer.Partition(coords, 2, nil, geographer.Options{K: 16})
//
// partitions 2D points (x0,y0,x1,y1,...) into 16 balanced blocks. When
// the load evolves and the points must be partitioned again,
//
//	res, err := geographer.Repartition(coords, 2, newWeights, blocks, geographer.Options{K: 16})
//
// warm-starts from the previous partition: it skips the
// sort/redistribution bootstrap and moves far less weight between
// blocks (res.MigratedWeight) than a fresh Partition call.
//
// When a simulation repartitions every timestep, use a Session instead
// of a loop of one-shot calls: it ingests the points once, keeps the
// distributed state resident, and exposes the same warm repartitioning
// with UpdateWeights/UpdateCoords deltas in between —
//
//	s, _ := geographer.NewSession(coords, 2, weights, geographer.Options{K: 16})
//	defer s.Close()
//	blocks, err := s.Partition()
//	for ... {
//		s.UpdateWeights(w)
//		res, err := s.Repartition()
//	}
//
// with results bit-identical to the one-shot chain.
package geographer

import (
	"fmt"
	"strings"

	"geographer/internal/baselines"
	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/graph"
	"geographer/internal/mesh"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/refine"
	"geographer/internal/repart"
	"geographer/internal/spmv"
	"geographer/internal/viz"
)

// Method names accepted by Options.Method.
const (
	MethodGeographer  = "geographer" // balanced k-means (the paper's algorithm)
	MethodRCB         = "rcb"
	MethodRIB         = "rib"
	MethodMultiJagged = "multijagged"
	MethodHSFC        = "hsfc"
)

// ErrNonFinite is the error (wrapped with the offending position; test
// with errors.Is) every entry point that takes coordinates or weights —
// Partition, Repartition, NewSession, Session.UpdateWeights,
// Session.UpdateCoords, Evaluate, RefinePartition, Extrude, RenderSVG —
// returns for a NaN or ±Inf coordinate or a NaN, ±Inf or negative weight.
var ErrNonFinite = geom.ErrNonFinite

// Options configures Partition. Coordinates must be finite and weights
// finite and non-negative whatever the options: anything else is rejected
// with ErrNonFinite before any work starts.
type Options struct {
	// K is the number of blocks (required, >= 1). Partition takes any K;
	// NewSession and Repartition, whose sessions keep one center per
	// block, take at most one block per point (K <= n).
	K int
	// Method selects the partitioner; empty means MethodGeographer.
	Method string
	// Epsilon is the allowed imbalance (default 0.03; negative or NaN is
	// an error — the balance condition could never be met).
	Epsilon float64
	// Processes is the number of simulated parallel ranks (default 4).
	// The output is bit-identical across Processes and Workers settings
	// only with Deterministic; otherwise it depends on the rank count
	// (on 20 000-point meshes with K = 16, going from 4 to 7 ranks moves
	// hundreds to thousands of the assignments).
	Processes int
	// Seed drives the algorithm's internal sampling (default 1).
	Seed int64
	// Strict makes Epsilon a hard guarantee for MethodGeographer.
	Strict bool
	// TargetFractions optionally sets heterogeneous block sizes; only
	// supported by MethodGeographer. Length K, every fraction strictly
	// positive, summing to 1 — enforced, since a zero or negative
	// fraction would silently skew the balance of every other block.
	TargetFractions []float64
	// Workers sets MethodGeographer's intra-rank kernel shard count: when
	// the host has more cores than Processes, each simulated rank splits
	// its assignment work across this many concurrent shards. 0 = auto
	// (GOMAXPROCS/Processes), 1 = serial.
	Workers int
	// Deterministic makes MethodGeographer's cold partitions bit-identical
	// across every Processes and Workers setting (warm repartitioning
	// already is): sampled initialization is disabled and all global float
	// reductions run through order-independent exact accumulators. Costs
	// some cold-start speed; other methods ignore it.
	Deterministic bool
}

func (o Options) withDefaults() Options {
	if o.Method == "" {
		o.Method = MethodGeographer
	}
	if o.Processes == 0 {
		o.Processes = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// validate rejects a Processes count below one, which would panic, and
// otherwise returns core.Config.Validate's verdict on K, Epsilon,
// Workers and TargetFractions, whatever the method. Call after
// withDefaults.
func (o Options) validate() error {
	if o.Processes < 1 {
		return fmt.Errorf("geographer: Processes=%d", o.Processes)
	}
	return o.coreConfig().Validate(o.K)
}

// coreConfig translates the facade Options into the balanced-k-means
// configuration of internal/core (all paper optimizations on; a zero
// Epsilon keeps DefaultConfig's). Deterministic turns off the sampled
// initialization, the one part of a cold run that depends on the rank
// layout.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if o.Epsilon != 0 {
		cfg.Epsilon = o.Epsilon
	}
	cfg.Seed = o.Seed
	cfg.Strict = o.Strict
	cfg.TargetFractions = o.TargetFractions
	cfg.Workers = o.Workers
	cfg.SampledInit = !o.Deterministic
	return cfg
}

// geographerOnly is the shared prologue of Repartition, NewSession and
// NewSessionFromCheckpoint: defaults, validation, and the check that the
// method is the one whose centers a warm start resumes from.
func (o Options) geographerOnly(what string) (Options, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return o, err
	}
	if strings.ToLower(o.Method) != MethodGeographer {
		return o, fmt.Errorf("geographer: %s requires Method=%q, got %q", what, MethodGeographer, o.Method)
	}
	return o, nil
}

func (o Options) tool() (partition.Distributed, error) {
	switch strings.ToLower(o.Method) {
	case MethodGeographer:
		return core.New(o.coreConfig()), nil
	case MethodRCB:
		return baselines.RCB(), nil
	case MethodRIB:
		return baselines.RIB(), nil
	case MethodMultiJagged, "mj":
		return baselines.MultiJagged(), nil
	case MethodHSFC, "sfc":
		return baselines.HSFC{}, nil
	default:
		return nil, fmt.Errorf("geographer: unknown method %q", o.Method)
	}
}

// pointSet wraps the input of Partition, Repartition and NewSession
// and checks it: finite coordinates, finite non-negative weights
// (ErrNonFinite) and at least one point, whatever the method.
func pointSet(coords []float64, dim int, weights []float64) (*geom.PointSet, error) {
	ps := &geom.PointSet{Dim: dim, Coords: coords, Weight: weights}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	if ps.Len() == 0 {
		return nil, fmt.Errorf("geographer: empty point set")
	}
	return ps, nil
}

// Partition assigns each point to a block in [0, K). Coordinates are
// flat (len = n·dim, n ≥ 1); weights may be nil for unit weights.
// MethodGeographer accepts any dim ≥ 1 — beyond 3 the space-filling-
// curve bootstrap is replaced by seeded sampling and the clustering runs
// through the kernels' column-walking distance arm (balanced clustering
// in feature space). The geometric baseline methods remain spatial
// (dim ∈ {1,2,3}).
func Partition(coords []float64, dim int, weights []float64, opts Options) ([]int32, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ps, err := pointSet(coords, dim, weights)
	if err != nil {
		return nil, err
	}
	if dim > geom.MaxDim && strings.ToLower(opts.Method) != MethodGeographer {
		return nil, fmt.Errorf("geographer: method %q is spatial-only (dim ≤ %d); use Method=%q for %d-dimensional inputs",
			opts.Method, geom.MaxDim, MethodGeographer, dim)
	}
	tool, err := opts.tool()
	if err != nil {
		return nil, err
	}
	world := mpi.NewWorld(opts.Processes)
	p, err := partition.Run(world, ps, opts.K, tool)
	if err != nil {
		return nil, err
	}
	return p.Assign, nil
}

// RepartResult is what Repartition returns: the new assignment plus the
// migration cost of adopting it.
type RepartResult struct {
	// Blocks assigns each point its new block in [0, K).
	Blocks []int32
	// MigratedWeight is the total weight of points whose block differs
	// from prevAssign — the data-movement cost the simulation pays when
	// it adopts the new partition; MigratedPoints counts those points.
	MigratedWeight float64
	MigratedPoints int
	// TotalWeight is the weight of the whole point set, so
	// MigratedWeight/TotalWeight is the migrated fraction.
	TotalWeight float64

	// DistCalcs and HamerlySkips expose the step's global
	// distance-evaluation and bound-skip counts — the cost the
	// incremental warm path (sessions; see Session.Repartition) exists
	// to cut.
	DistCalcs    int64
	HamerlySkips int64
	// Incremental reports whether this step took the incremental fast
	// path: every rank corrected and reused the distance bounds carried
	// from the previous warm step instead of recomputing all points.
	// One-shot Repartition calls always report false (there is no
	// previous resident step to carry from).
	Incremental bool
	// BoundaryFrac is the fraction of points the step's first
	// assignment pass had to examine — the boundary points whose
	// corrected bounds could not prove their assignment unchanged. 1.0
	// on non-incremental steps.
	BoundaryFrac float64

	// PreImbalance is the imbalance of the previous partition under the
	// current weights, measured before the step ran. Only
	// Session.RepartitionIfAbove fills it (on both the skip and the act
	// path — it is the quantity tested against the threshold); other
	// entry points leave it 0.
	PreImbalance float64

	// Retries counts the retries Session.RepartitionWithRetry needed
	// before this step succeeded
	// (0 = the first attempt worked; other entry points always leave
	// it 0).
	Retries int
}

// fromStats copies the migration and incremental-observability numbers
// of one warm step into the facade shape. A step that did not run
// reports only PreImbalance and Retries, and no blocks.
func fromStats(blocks []int32, st repart.Stats) RepartResult {
	return RepartResult{
		Blocks:         blocks,
		MigratedWeight: st.MigratedWeight,
		MigratedPoints: st.MigratedPoints,
		TotalWeight:    st.TotalWeight,
		DistCalcs:      st.Info.DistCalcs,
		HamerlySkips:   st.Info.HamerlySkips,
		Incremental:    st.Info.CarriedBounds,
		BoundaryFrac:   st.Info.BoundaryFrac,
		PreImbalance:   st.PreImbalance,
		Retries:        st.Retries,
	}
}

// Repartition recomputes a partition for points that already carry one —
// the dynamic-workload scenario of the paper's §1, where a simulation
// repartitions repeatedly as its load evolves. Instead of bootstrapping
// from the space-filling curve, the balanced k-means is warm-started
// from the centers of prevAssign (their weighted means), which skips
// the SFC sort/redistribution phase entirely and keeps the new
// partition close to the old one: far less weight migrates than under a
// fresh Partition call at comparable cut and imbalance.
//
// Inputs follow Partition: coords is flat (len = n·dim, any dim ≥ 1),
// weights may be nil for unit weights, and prevAssign must hold one
// block id in [0, K) per point — typically a previous Partition or
// Repartition result, but any valid assignment seeds the warm start.
// Only MethodGeographer supports warm starts; other methods are an
// error, and so is a K above the number of points. The result is deterministic: the same input and prevAssign
// produce a bit-identical partition for every Processes and Workers
// setting (see DESIGN.md, "Repartitioning invariants").
func Repartition(coords []float64, dim int, weights []float64, prevAssign []int32, opts Options) (RepartResult, error) {
	opts, err := opts.geographerOnly("warm-start repartitioning")
	if err != nil {
		return RepartResult{}, err
	}
	ps, err := pointSet(coords, dim, weights)
	if err != nil {
		return RepartResult{}, err
	}
	world := mpi.NewWorld(opts.Processes)
	p, stats, err := repart.Repartition(world, ps, prevAssign, opts.K, opts.coreConfig())
	if err != nil {
		return RepartResult{}, err
	}
	return fromStats(p.Assign, stats), nil
}

// Quality holds the graph-based partition metrics of the paper (§2).
type Quality struct {
	// EdgeCut counts mesh edges whose endpoints lie in different blocks.
	EdgeCut int64
	// MaxCommVol is the largest per-block communication volume (boundary
	// vertices counted once per neighboring block); TotalCommVol sums it
	// over all blocks.
	MaxCommVol   int64
	TotalCommVol int64
	// Imbalance is max_b weight(b)/target(b) − 1; a partition meets the
	// balance constraint when Imbalance ≤ ε.
	Imbalance float64
	// HarmDiameter is the harmonic mean of the block graph diameters
	// (the paper's block-shape measure; lower = more compact).
	HarmDiameter float64
	// Disconnected counts blocks that are not connected subgraphs, and
	// EmptyBlocks counts blocks with no vertices at all.
	Disconnected int
	EmptyBlocks  int
}

// Evaluate computes partition quality over a CSR mesh graph: adjacency of
// vertex v is adj[xadj[v]:xadj[v+1]].
func Evaluate(xadj []int64, adj []int32, coords []float64, dim int, weights []float64, part []int32, k int) (Quality, error) {
	g, err := csrGraph(xadj, adj)
	if err != nil {
		return Quality{}, err
	}
	ps := &geom.PointSet{Dim: dim, Coords: coords, Weight: weights}
	if err := ps.Validate(); err != nil {
		return Quality{}, err
	}
	r, err := metrics.Evaluate(g, ps, part, k)
	if err != nil {
		return Quality{}, err
	}
	return Quality{
		EdgeCut:      r.EdgeCut,
		MaxCommVol:   r.MaxCommVol,
		TotalCommVol: r.TotCommVol,
		Imbalance:    r.Imbalance,
		HarmDiameter: r.HarmDiam,
		Disconnected: r.Disconnected,
		EmptyBlocks:  r.EmptyBlocks,
	}, nil
}

// csrGraph wraps a caller's CSR arrays as a graph, rejecting arrays that
// cannot be read in bounds (graph.CheckBounds) before anything indexes
// them.
func csrGraph(xadj []int64, adj []int32) (*graph.Graph, error) {
	g := &graph.Graph{N: len(xadj) - 1, Xadj: xadj, Adj: adj}
	if err := g.CheckBounds(); err != nil {
		return nil, err
	}
	return g, nil
}

// MeshData is a self-contained mesh: points plus CSR adjacency.
type MeshData struct {
	// Name identifies the mesh (generator kind or file name).
	Name string
	// Dim is the coordinate dimension (2 or 3).
	Dim int
	// Coords holds the vertex coordinates, flat with stride Dim.
	Coords []float64
	// Weights holds one weight per vertex; nil means unit weights.
	Weights []float64
	// XAdj and Adj store the adjacency in CSR form: the neighbors of
	// vertex v are Adj[XAdj[v]:XAdj[v+1]].
	XAdj []int64
	Adj  []int32
}

// N returns the number of vertices.
func (m *MeshData) N() int { return len(m.XAdj) - 1 }

// Mesh kinds accepted by GenerateMesh.
const (
	MeshDelaunay2D = "delaunay2d" // Delaunay triangulation of uniform points
	MeshRefined    = "refined"    // adaptively refined triangle mesh (hugetric-like)
	MeshBubbles    = "bubbles"    // hugebubbles-like
	MeshAirfoil    = "airfoil"    // FEM boundary-layer mesh (NACA-like)
	MeshRGG        = "rgg"        // random geometric graph
	MeshClimate    = "climate"    // 2.5D ocean mesh with layer weights
	MeshDelaunay3D = "delaunay3d" // 3D Delaunay analog (kNN adjacency)
	MeshTube3D     = "tube3d"     // branching-tube 3D mesh (alya-like)
)

// GenerateMesh produces one of the synthetic benchmark meshes used in the
// evaluation (deterministic in n and seed). kind is one of the Mesh*
// constants, in any letter case; n < 0 and unknown kinds are errors.
func GenerateMesh(kind string, n int, seed int64) (*MeshData, error) {
	m, err := mesh.Generate(strings.ToLower(kind), n, seed)
	if err != nil {
		return nil, err
	}
	return &MeshData{
		Name:    m.Name,
		Dim:     m.Points.Dim,
		Coords:  m.Points.Coords,
		Weights: m.Points.Weight,
		XAdj:    m.G.Xadj,
		Adj:     m.G.Adj,
	}, nil
}

// SpMVCommTime runs the paper's SpMV communication benchmark (§2) on a
// partitioned CSR graph and returns the modeled and wall-clock
// communication seconds per multiplication.
func SpMVCommTime(xadj []int64, adj []int32, part []int32, k, iters int) (modeled, wall float64, err error) {
	g, err := csrGraph(xadj, adj)
	if err != nil {
		return 0, 0, err
	}
	res, err := spmv.Benchmark(g, part, k, iters)
	if err != nil {
		return 0, 0, err
	}
	return res.ModeledCommSeconds, res.CommSeconds, nil
}

// Extrude materializes the 2.5D use case (paper §1): it builds the full
// 3D mesh from a weighted 2D surface mesh (weight = vertical layer count)
// and lifts a surface partition column-wise onto it. Returns the 3D mesh
// and the lifted partition. The surface points are checked as Evaluate
// checks them (ErrNonFinite), block ids must be non-negative, a NaN or
// +Inf layerHeight is an error and the 3D mesh must fit int32 vertex ids.
func Extrude(surface *MeshData, part2d []int32, layerHeight float64) (*MeshData, []int32, error) {
	if surface == nil {
		return nil, nil, fmt.Errorf("geographer: nil surface mesh")
	}
	g, err := csrGraph(surface.XAdj, surface.Adj)
	if err != nil {
		return nil, nil, err
	}
	ps := &geom.PointSet{Dim: surface.Dim, Coords: surface.Coords, Weight: surface.Weights}
	if err := ps.Validate(); err != nil {
		return nil, nil, err
	}
	if ps.Len() != g.N {
		return nil, nil, fmt.Errorf("geographer: %d points vs %d surface vertices", ps.Len(), g.N)
	}
	// Lifting first rejects a bad part2d before the 3D mesh is built.
	m := &mesh.Mesh{Name: surface.Name, Points: ps, G: g}
	lifted, err := mesh.LiftPartition(m, part2d)
	if err != nil {
		return nil, nil, err
	}
	m3, err := mesh.Extrude25D(m, layerHeight)
	if err != nil {
		return nil, nil, err
	}
	return &MeshData{
		Name:   m3.Name,
		Dim:    3,
		Coords: m3.Points.Coords,
		XAdj:   m3.G.Xadj,
		Adj:    m3.G.Adj,
	}, lifted, nil
}

// RefineResult reports what a refinement pass achieved.
type RefineResult struct {
	// Moves is the number of boundary vertices that changed block.
	Moves int
	// CutBefore and CutAfter are the edge cut at entry and exit.
	CutBefore int64
	CutAfter  int64
}

// RefinePartition runs the optional Fiduccia–Mattheyses-style boundary
// refinement (an extension the paper mentions as possible in §2) on a
// partition, in place. Balance within epsilon is preserved; epsilon = 0
// means the default 0.03, and a negative or NaN epsilon is an error. The
// points are checked as Evaluate checks them: one per graph vertex,
// finite coordinates, and finite non-negative weights (ErrNonFinite).
func RefinePartition(xadj []int64, adj []int32, coords []float64, dim int, weights []float64, part []int32, k int, epsilon float64) (RefineResult, error) {
	if !(epsilon >= 0) {
		return RefineResult{}, fmt.Errorf("geographer: epsilon=%g is negative or NaN", epsilon)
	}
	g, err := csrGraph(xadj, adj)
	if err != nil {
		return RefineResult{}, err
	}
	ps := &geom.PointSet{Dim: dim, Coords: coords, Weight: weights}
	if err := ps.Validate(); err != nil {
		return RefineResult{}, err
	}
	opts := refine.DefaultOptions()
	if epsilon > 0 {
		opts.Epsilon = epsilon
	}
	res, err := refine.Refine(g, ps, part, k, opts)
	if err != nil {
		return RefineResult{}, err
	}
	return RefineResult{Moves: res.Moves, CutBefore: res.CutBefore, CutAfter: res.CutAfter}, nil
}

// RenderSVG writes a colored 2D partition image (Figure 1 style). The
// coordinates must be finite (ErrNonFinite), and part must assign every
// point a block in [0, k); nothing is written otherwise.
func RenderSVG(path string, coords []float64, part []int32, k int) error {
	ps := &geom.PointSet{Dim: 2, Coords: coords}
	if err := ps.Validate(); err != nil {
		return err
	}
	if err := partition.Check(part, ps.Len(), k); err != nil {
		return err
	}
	return viz.RenderToFile(path, ps, part, k, viz.DefaultOptions())
}
