package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"geographer/internal/dsort"
	"geographer/internal/exact"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/sched"
	"geographer/internal/sfc"
)

// BalancedKMeans is the Geographer partitioner. It implements
// partition.Distributed; one value may be used for several Partition
// calls (the Info of the most recent call is retained).
type BalancedKMeans struct {
	Cfg Config

	mu   sync.Mutex
	info Info
}

// New returns a partitioner with the given configuration.
func New(cfg Config) *BalancedKMeans { return &BalancedKMeans{Cfg: cfg} }

// Name implements partition.Distributed.
func (b *BalancedKMeans) Name() string { return "Geographer" }

// LastInfo returns diagnostics of the most recent Partition call
// (aggregated over ranks).
func (b *BalancedKMeans) LastInfo() Info {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.info
}

// state is the per-rank working set of Algorithm 1/2.
type state struct {
	c   *mpi.Comm
	cfg Config
	dim int
	k   int

	// Local points (possibly redistributed by the SFC sort), stored as
	// SoA columns so the batch kernels can stream them.
	X   geom.Cols
	W   []float64
	IDs []int64

	// The sampled bootstrap (§4.5, cold runs only) keeps the rank's
	// points in shuffled order while its sample grows, so the sample is
	// always the prefix [0, nSample); cycles is the shuffle as its cycle
	// list, which the moves in and out of that order walk (sample.go).
	cycles  []int32
	allIdx  []int32 // identity; a pass's index list is its prefix allIdx[:nSample]
	nSample int     // size of the active sample prefix

	A      []int32 // assignment per local point (-1 = unassigned)
	ub, lb []float64
	lbk    []float64 // Elkan mode: raw-distance lower bounds, len n·k

	centers   []float64 // k flat center rows, stride dim
	influence []float64
	targets   []float64 // per-block global target weights

	// Per-round kernel tables (squared effective-distance space).
	orderedCenters []int32
	distToBB2      []float64
	localW         []float64
	invInf2        []float64
	centerCols     geom.Cols

	// Hoisted outer-loop scratch, allocated once per Partition call.
	oldInfluence []float64
	newCenters   []float64 // k flat rows, stride dim
	deltas       []float64
	centVec      []float64 // computeCenters reduction buffer, k·(dim+1)
	perCenter    []float64 // per-center shift scratch, len k

	// Pending influence rescale of the distance bounds: instead of an
	// eager O(n) pass after every influence change, the per-center
	// ratios wait here and the next kernel pass applies them at each
	// point visit (every sampled point is visited exactly once per
	// round, so each ratio is consumed exactly once — bit-identical to
	// the eager pass). applyPendingBounds materializes eagerly on the
	// rare paths where no kernel pass follows before bounds are read.
	pendUbRatio []float64
	pendLbRatio float64
	pendScaled  bool

	// Intra-rank sharding: the sample is split on a fixed chunk grid
	// (kernelChunks, a function of the sample size only); up to
	// `workers` concurrent workers — the caller plus helpers leased
	// from the shared pool (internal/sched) — process the chunks when
	// spare cores exist beyond the simulated world size. One kernel
	// value per chunk.
	workers int
	lease   *sched.Lease
	shards  []geom.AssignKernel

	diag float64 // global bounding-box diagonal

	// anySampling is published by assignAndBalance (it rides in the
	// balance collective): whether any rank's sample is still growing.
	anySampling bool

	globalN int64 // global point count, fixed at init

	// Warm-start repartitioning (PartitionResident): global float sums are
	// taken through order-independent exact accumulators so the output
	// does not depend on how points are grouped into ranks or kernel
	// chunks (see DESIGN.md, "Repartitioning invariants").
	warm   bool
	totalW float64 // exact global point weight
	// The accumulator banks are limb-major (exact.RowSums): their
	// backing arrays double as the reduction wire, and only the touched
	// exponent-row window rides the collective (mpi.AllreduceSumSparse),
	// which is what keeps per-rank exact scratch and per-round collective
	// bytes flat as k and p grow (DESIGN.md, "Scaling invariants").
	exactW   *exact.RowSums // per-block weight accumulators, k sums
	exactC   *exact.RowSums // center accumulators, k·(dim+1) sums
	exactTot *exact.RowSums // global weight accumulator, 1 sum
	// The reductions fold into the banks above in place, so this rank's
	// own contribution lives in a second pair that no collective writes.
	// The pair is maintained, not rebuilt: ownA shadows the assignment
	// the own banks currently hold, and each reduction moves only the
	// points whose block changed since (syncOwnBanks in warm.go).
	// Weights, coordinates and the partition may all change between
	// runs, so the pair is valid within one run only.
	ownW     *exact.RowSums // this rank's part of exactW
	ownC     *exact.RowSums // this rank's part of exactC
	ownA     []int32        // assignment held by ownW/ownC (-1 = not held)
	ownValid bool           // a reduction of the current run has rebuilt them

	// Flat bounding box (bbMin/bbMax below) and weight of the positions
	// [0, boxN): points and weights are fixed within a run and the sample
	// prefix only grows, so each assignAndBalance folds in just the
	// positions added since the last one — the box is exact and the
	// weight keeps summing left to right. unshuffle restarts both, so the
	// full set's weight adds in ingest order.
	sampleW float64
	boxN    int

	// Small reusable collective buffers of the steady-state path: the
	// diagnostics counter reduction of finish and the fused bounding-box
	// fold (mins and negated maxs in one vector, see reduceBounds).
	ctrBuf []int64
	boxBuf []float64

	// Flat sample bounding box (any dimension), len dim each.
	bbMin, bbMax []float64

	// Cross-run bound carrying (every warm resident run; see
	// warm.go and DESIGN.md, "Incremental bound invariants"). The stored
	// A/ub/lb/lbk stay valid between PartitionResident calls relative to
	// boundCenters (the centers of the run's most recent kernel pass)
	// and the final influence values; the next warm run corrects them by
	// the per-center drift instead of resetting to "unknown".
	boundCenters []float64  // flat k·dim centers the stored bounds are valid against
	carryValid   bool       // a previous warm run left reusable bounds
	carryBounds  BoundsKind // bounds mode that produced them
	carryK       int        // k that produced them
	worklist     []int32    // boundary points of an incremental first pass
	useWorklist  bool       // consume worklist on the next kernel pass

	// Raw-space shadow of the Hamerly lower bound (trackRaw runs): the
	// influence-free min distance to any non-assigned center. Influence
	// rescales cannot touch it, so it converts losslessly across runs
	// (effective bounds lose the whole influence spread) and floors the
	// balance loop's compounding lb decay (geom.AssignKernel.RawLb).
	rlb      []float64
	trackRaw bool    // maintain rlb this run (warm+incremental+Hamerly)
	rawLbInv float64 // per-round conservative 1/max-influence (floor and triangle break; set when ccBuilt)

	// Center-center tables of the anchored Hamerly rescans (k×k, rebuilt
	// once per assignAndBalance call that wants them — centers are fixed
	// across its balance rounds): ccOrder rows list centers ascending by
	// raw distance from the row's center, ccDist the matching
	// (conservatively deflated) distances (geom.AssignKernel.CCOrder/
	// CCDist). Allocated by the first build, so a cold run whose k fails
	// ccTablesPay never holds k² entries; ccBuilt says whether the
	// current call's kernels may read them (and rawLbInv).
	ccOrder []int32
	ccDist  []float64
	ccBuilt bool

	info Info
}

// Partition implements partition.Distributed: Algorithm 2 of the paper.
func (b *BalancedKMeans) Partition(c *mpi.Comm, pts *partition.Local, k int) ([]int64, []int32, error) {
	cfg := b.Cfg.normalized()
	if err := cfg.Validate(k); err != nil {
		return nil, nil, err
	}
	if pts.Dim > geom.MaxDim {
		// The Hilbert curve exists only for spatial dimensions; feature-
		// space inputs always ingest by id order (the warm path skips the
		// bootstrap entirely anyway) and stay on the SoA pipeline.
		cfg.SFCBootstrap = false
	}
	st := &state{c: c, cfg: cfg, dim: pts.Dim, k: k}

	// ---- Phase 1: space-filling curve keys (§4.1). -----------------------
	// Flat dsort columns are filled straight from the input and keyed
	// through the batch kernel.
	tStart := time.Now()
	bmin, bmax := globalBounds(c, pts)
	st.diag = geom.FlatBoxDiagonal(bmin, bmax)
	if st.diag == 0 {
		st.diag = 1
	}
	cols := dsort.NewCols(st.dim, pts.Len())
	for d := 0; d < st.dim; d++ {
		col := cols.C[d]
		for i := range col {
			col[i] = pts.Coords[i*st.dim+d]
		}
	}
	for i := range cols.IDs {
		cols.IDs[i] = pts.IDs[i]
		cols.W[i] = pts.Weight(i)
	}
	if cfg.SFCBootstrap {
		curve := sfc.NewCurve(boxFromFlat(bmin, bmax, pts.Dim), pts.Dim)
		gv := cols.GeomView()
		curve.KeysColsParallel(&gv, cols.Keys, resolveWorkers(cfg, c.Size()), cfg.Lease)
		c.AddOps(int64(cols.Len()))
	} else {
		for i := range cols.Keys {
			cols.Keys[i] = uint64(pts.IDs[i])
		}
	}
	st.info.SFCSeconds = time.Since(tStart).Seconds()

	// ---- Phase 2: global sort + redistribution (Algorithm 2, l. 4–6). ----
	tSort := time.Now()
	if cfg.SFCBootstrap {
		cols = dsort.SampleSortCols(c, cols)
		cols = dsort.RebalanceCols(c, cols)
	}
	// The k-means phase adopts the sorted columns in place: absent axes
	// get zero columns (Geom), nothing is copied.
	st.X = cols.Geom()
	st.W = cols.W
	st.IDs = cols.IDs
	st.info.SortSeconds = time.Since(tSort).Seconds()

	// ---- Phase 3: balanced k-means (Algorithm 2, l. 7–19). ---------------
	return b.finish(st, nil)
}

// finish runs the k-means phase on an ingested state and aggregates the
// per-rank diagnostics (rank 0 keeps the result). A warm state starts
// from seed (flat k·dim centers); a cold one ignores it.
func (b *BalancedKMeans) finish(st *state, seed []float64) ([]int64, []int32, error) {
	tKM := time.Now()
	if err := st.initCentersAndTargets(seed); err != nil {
		return nil, nil, err
	}
	st.run()
	st.info.KMeansSeconds = time.Since(tKM).Seconds()

	// Non-carried runs assign every point fresh in their first pass, so
	// the whole local set is "boundary" by definition.
	if !st.info.CarriedBounds {
		st.info.BoundaryPoints = int64(st.X.Len())
	}
	counters := st.ctrBuf
	counters[0], counters[1], counters[2] = st.info.DistCalcs, st.info.HamerlySkips, st.info.BBoxBreaks
	counters[3], counters[4], counters[5] = st.info.Visits, st.info.BoundaryPoints, boolTo64(st.info.CarriedBounds)
	mpi.AllreduceSumInto(st.c, counters, counters)
	st.info.DistCalcs, st.info.HamerlySkips, st.info.BBoxBreaks = counters[0], counters[1], counters[2]
	st.info.Visits, st.info.BoundaryPoints = counters[3], counters[4]
	// The incremental fast path "was taken" only if every rank reused
	// its carried bounds (per-rank fallbacks never change the output,
	// but a mixed step is not the fast path).
	st.info.CarriedBounds = counters[5] == int64(st.c.Size())
	if st.globalN > 0 {
		st.info.BoundaryFrac = float64(st.info.BoundaryPoints) / float64(st.globalN)
	}
	if st.c.Rank() == 0 {
		b.mu.Lock()
		b.info = st.info
		b.mu.Unlock()
	}
	return st.IDs, st.A, nil
}

// globalBounds computes the flat bounding box of the distributed point
// set (any dimension).
func globalBounds(c *mpi.Comm, pts *partition.Local) (bmin, bmax []float64) {
	buf := localBoundsInit(nil, pts.Dim)
	n := pts.Len()
	for i := 0; i < n; i++ {
		foldBounds(buf, pts.Coord(i), pts.Dim)
	}
	bmin = make([]float64, pts.Dim)
	bmax = make([]float64, pts.Dim)
	reduceBounds(c, pts.Dim, buf, bmin, bmax)
	return bmin, bmax
}

// boxFromFlat packs a flat spatial bounding box into a geom.Box (the
// space-filling-curve bootstrap needs one; dim ≤ geom.MaxDim only).
func boxFromFlat(bmin, bmax []float64, dim int) geom.Box {
	box := geom.Box{Dim: dim}
	copy(box.Min[:dim], bmin)
	copy(box.Max[:dim], bmax)
	return box
}

// localBoundsInit prepares the fold buffer of a bounds pass: dim mins
// followed by dim *negated* maxs, all starting at +Inf, so the whole box
// reduces with a single AllreduceMin (max x = -min(-x), including the
// IEEE zero-sign tie-breaks). Reuses buf when it is large enough —
// the resident path passes a persistent buffer and stays allocation-free.
func localBoundsInit(buf []float64, dim int) []float64 {
	if cap(buf) < 2*dim {
		buf = make([]float64, 2*dim)
	}
	buf = buf[:2*dim]
	for d := range buf {
		buf[d] = math.Inf(1)
	}
	return buf
}

// foldBounds folds one flat coordinate vector into a localBoundsInit
// buffer. A plain compare decides the common case; math.Min is called
// only where it would change the slot or where two zeros meet, so the
// -0 < +0 tie-break the packed reduction relies on stays math.Min's.
// (NaN coordinates are rejected at the public boundary,
// geom.PointSet.Validate; one that got here would be ignored, where
// math.Min alone would poison the slot.)
func foldBounds(buf []float64, x []float64, dim int) {
	for d := 0; d < dim; d++ {
		v := x[d]
		if v < buf[d] || (v == 0 && buf[d] == 0) {
			buf[d] = math.Min(buf[d], v)
		}
		v = -v
		if v < buf[dim+d] || (v == 0 && buf[dim+d] == 0) {
			buf[dim+d] = math.Min(buf[dim+d], v)
		}
	}
}

// reduceBounds is the collective half of a global bounding-box
// computation, shared by globalBounds and Resident.RecomputeBounds so
// the two can never drift apart (bit-identical boxes are part of the
// session invariants): one element-wise min Allreduce over the packed
// mins/negated-maxs buffer (in place), unpacked into the caller's flat
// min/max slices (len dim each).
func reduceBounds(c *mpi.Comm, dim int, buf, bmin, bmax []float64) {
	mpi.AllreduceMinInto(c, buf, buf)
	for d := 0; d < dim; d++ {
		bmin[d] = buf[d]
		bmax[d] = -buf[dim+d]
	}
}

// resolveWorkers decides how many intra-rank kernel shards to use: spare
// hardware parallelism beyond the one-goroutine-per-rank of the simulated
// world is handed to the assignment kernels. cfg.Workers > 0 forces a
// count (1 = serial), 0 divides the leased worker budget (the process
// default pool when cfg.Lease is nil — GOMAXPROCS — or the tenant's
// slice of it under internal/serve) evenly across the simulated ranks.
// The division can round to 0 at high worldSize; the result is always
// validated back to ≥ 1 — a rank is never left without its inline
// worker.
func resolveWorkers(cfg Config, worldSize int) int {
	w := cfg.Workers
	if w <= 0 && worldSize > 0 {
		w = cfg.Lease.Budget() / worldSize
	}
	if w < 1 {
		w = 1
	}
	if w > maxKernelShards {
		w = maxKernelShards
	}
	return w
}

// maxKernelShards caps the shard fan-out at the shared chunk grid's
// maximum (geom.MaxKernelChunks): more workers than chunks would idle.
const maxKernelShards = geom.MaxKernelChunks

// initCentersAndTargets places the k initial centers — at equal
// distances along the sorted point order (Algorithm 2, line 7: C[i] =
// sortedPoints[i·n/k + n/2k]), or straight from seed on the warm-start
// path — and computes per-block target weights.
func (st *state) initCentersAndTargets(seed []float64) error {
	// Scratch first: every reduction below can then run through the
	// persistent buffers, so a steady-state warm call allocates nothing.
	st.trackRaw = st.warm && st.cfg.Bounds == BoundsHamerly
	st.ensureScratch()
	// Nothing the own banks hold survives a run boundary: the first
	// reduction of this run rebuilds them from its assignment.
	st.ownValid = false

	n := mpi.ReduceScalarSum(st.c, int64(st.X.Len()))
	if n == 0 {
		return fmt.Errorf("core: empty global point set")
	}
	st.globalN = n

	if st.warm {
		st.centers = append(st.centers[:0], seed...)
	} else {
		// Cold seeding, any dimension: the curve index i·n/k + n/2k, or
		// (ablation, and always beyond MaxDim where no curve exists) a
		// uniform random global index drawn identically on every rank from
		// the shared seed. The owning rank writes the point into a flat
		// k·dim vector; every other entry stays zero, so the sum reduction
		// is exact (0 + x == x) and the seeds do not depend on the rank
		// layout.
		start := mpi.ExscanSum(st.c, int64(st.X.Len()))
		seedVec := st.centVec[:st.k*st.dim]
		clear(seedVec)
		var rng *rand.Rand
		if !st.cfg.SFCBootstrap {
			rng = rand.New(rand.NewSource(st.cfg.Seed + 1))
		}
		for i := 0; i < st.k; i++ {
			gi := int64(i)*n/int64(st.k) + n/(2*int64(st.k))
			if rng != nil {
				gi = int64(rng.Uint64() % uint64(n))
			}
			if gi >= start && gi < start+int64(st.X.Len()) {
				st.X.AtVec(int(gi-start), seedVec[i*st.dim:(i+1)*st.dim])
			}
		}
		copy(st.centers, mpi.AllreduceSum(st.c, seedVec))
	}
	var totalW float64
	if st.warm || st.cfg.Deterministic {
		totalW = st.exactTotalW()
	} else {
		localW := 0.0
		for _, w := range st.W {
			localW += w
		}
		totalW = mpi.ReduceScalarSum(st.c, localW)
	}

	targets, err := partition.Targets(totalW, st.k, st.cfg.TargetFractions)
	if err != nil {
		return err
	}
	st.targets = targets

	if st.carryOK() {
		st.prepareCarried()
	} else {
		st.resetRun()
	}
	return nil
}

// ensureScratch allocates every per-point and per-cluster buffer whose
// size does not match the current problem. On the one-shot paths the
// state is fresh and everything is allocated here, exactly once per
// Partition call — balance rounds and outer iterations must not
// allocate. On the resident path (session API) the buffers already fit
// and this is a no-op, which is the point: a warm timestep performs no
// per-point allocations at all.
func (st *state) ensureScratch() {
	n := st.X.Len()
	// The carried buffers (A/ub/lb here, influence/boundCenters below)
	// are keyed separately from their sibling scratch: a checkpoint
	// restore repopulates only the carried buffers, and the siblings
	// must still be allocated on the first run after the restore.
	if len(st.A) != n {
		st.A = make([]int32, n)
		st.ub = make([]float64, n)
		st.lb = make([]float64, n)
		st.carryValid = false // fresh per-point buffers carry nothing
	}
	if len(st.allIdx) != n {
		st.allIdx = make([]int32, n)
		for i := range st.allIdx {
			st.allIdx[i] = int32(i)
		}
	}
	if !st.warm && st.cfg.SampledInit && cap(st.cycles) < n {
		st.cycles = make([]int32, 0, n)
	}
	if cap(st.worklist) < n {
		st.worklist = make([]int32, 0, n)
	}
	if st.cfg.Bounds == BoundsElkan {
		if len(st.lbk) != n*st.k {
			st.lbk = make([]float64, n*st.k) // zero = trivially valid
		}
	} else {
		st.lbk = nil
	}
	if st.trackRaw && len(st.rlb) != n {
		st.rlb = make([]float64, n) // zero = trivially valid
	}
	if len(st.influence) != st.k {
		st.influence = make([]float64, st.k)
	}
	if len(st.boundCenters) != st.k*st.dim {
		st.boundCenters = make([]float64, st.k*st.dim)
	}
	if len(st.centers) != st.k*st.dim {
		st.centers = make([]float64, st.k*st.dim)
	}
	if len(st.orderedCenters) != st.k {
		st.orderedCenters = make([]int32, st.k)
		st.distToBB2 = make([]float64, st.k)
		st.invInf2 = make([]float64, st.k)
		st.centerCols = geom.MakeCols(st.dim, st.k)
		st.oldInfluence = make([]float64, st.k)
		st.deltas = make([]float64, st.k)
		st.perCenter = make([]float64, st.k)
		st.pendUbRatio = make([]float64, st.k)
	}
	if len(st.localW) != st.k+2 {
		st.localW = make([]float64, st.k+2) // +2: sample weight and sampling flag ride along
	}
	if len(st.newCenters) != st.k*st.dim {
		st.newCenters = make([]float64, st.k*st.dim)
	}
	if len(st.bbMin) != st.dim {
		st.bbMin = make([]float64, st.dim)
		st.bbMax = make([]float64, st.dim)
	}
	if len(st.centVec) != st.k*(st.dim+1) {
		st.centVec = make([]float64, st.k*(st.dim+1))
	}
	if nc := kernelChunks(n); len(st.shards) != nc || (nc > 0 && len(st.shards[0].LocalW) != st.k) {
		st.shards = make([]geom.AssignKernel, nc)
		for s := range st.shards {
			st.shards[s].LocalW = make([]float64, st.k)
		}
	}
	st.workers = resolveWorkers(st.cfg, st.c.Size())
	st.lease = st.cfg.Lease
	if len(st.ctrBuf) != 6 {
		st.ctrBuf = make([]int64, 6)
	}
	if len(st.boxBuf) != 2*st.dim {
		st.boxBuf = make([]float64, 2*st.dim)
	}
	if st.warm || st.cfg.Deterministic {
		if st.exactW == nil || st.exactW.Len() != st.k {
			st.exactW = exact.NewRowSums(st.k)
		}
		if st.exactC == nil || st.exactC.Len() != st.k*(st.dim+1) {
			st.exactC = exact.NewRowSums(st.k * (st.dim + 1))
		}
		if st.exactTot == nil {
			st.exactTot = exact.NewRowSums(1)
		}
		if st.ownW == nil || st.ownW.Len() != st.k {
			st.ownW = exact.NewRowSums(st.k)
		}
		if st.ownC == nil || st.ownC.Len() != st.k*(st.dim+1) {
			st.ownC = exact.NewRowSums(st.k * (st.dim + 1))
		}
		if len(st.ownA) != n {
			st.ownA = make([]int32, n)
		}
	}
}

// resetRun reinitializes the per-run values of all scratch buffers —
// the write pattern a fresh allocation plus the old inline loops
// produced, so a reused resident state starts a run in a state
// bit-identical to a freshly built one: assignments unassigned, upper
// bounds infinite, lower bounds trivially valid, influences 1, the
// sample covering everything (warm) or shuffled and truncated (cold).
func (st *state) resetRun() {
	for i := range st.influence {
		st.influence[i] = 1
	}
	for i := range st.A {
		st.A[i] = -1
		st.ub[i] = math.Inf(1)
		st.lb[i] = 0
	}
	if st.lbk != nil {
		clear(st.lbk)
	}
	if st.rlb != nil {
		clear(st.rlb)
	}
	st.nSample = st.X.Len()
	st.resetBox()
	st.pendScaled = false
	st.anySampling = false
	st.useWorklist = false
	// The sampled bootstrap exists to move bad initial centers cheaply;
	// warm starts begin near-converged, so the warm path always runs on
	// the full point set — also a determinism requirement, since the
	// shuffle is rank-seeded.
	if !st.warm && st.cfg.SampledInit && st.X.Len() > 100 {
		st.shuffle()
		st.nSample = 100
	}
}

// resetBox empties the folded sample box and weight (boxN = 0).
func (st *state) resetBox() {
	geom.FlatBoxInit(st.bbMin, st.bbMax)
	st.sampleW = 0
	st.boxN = 0
}

// run is the main loop of Algorithm 2.
func (st *state) run() {
	threshold := st.cfg.DeltaThreshold * st.diag

	for iter := 0; iter < st.cfg.MaxIter; iter++ {
		st.info.Iterations++
		sampling := st.nSample < st.X.Len()

		// Sampling is a local decision but must stay collectively
		// consistent; ranks may have different local sizes, so they agree
		// on whether anyone is still sampling inside the balance
		// collective (st.anySampling).
		balanced := st.assignAndBalance()

		// New centers: weighted mean of assigned sample points
		// (Algorithm 2, l. 12–13) — one global vector sum.
		moved := st.computeCenters(st.newCenters)

		maxDelta := 0.0
		for b := 0; b < st.k; b++ {
			st.deltas[b] = geom.DistVec(st.centerRow(b), st.newCenters[b*st.dim:(b+1)*st.dim])
			if st.deltas[b] > maxDelta {
				maxDelta = st.deltas[b]
			}
		}

		if !st.anySampling && balanced && maxDelta < threshold {
			copy(st.centers, st.newCenters)
			break
		}

		// Adapt the distance bounds for the upcoming movement
		// (Eqs. (4)–(5), signs corrected; see DESIGN.md). The per-center
		// effective shifts are precomputed so the per-point loops stay
		// division-free.
		switch st.cfg.Bounds {
		case BoundsHamerly:
			maxShift := 0.0
			for b := 0; b < st.k; b++ {
				st.perCenter[b] = st.deltas[b] / st.influence[b]
				if st.perCenter[b] > maxShift {
					maxShift = st.perCenter[b]
				}
			}
			if st.trackRaw {
				// Warm runs never sample. The raw shadow shrinks by the
				// maximum *raw* movement (influences don't touch raw
				// space), padded so rounding can only loosen it.
				rawShift := maxDelta * (1 + boundSlack)
				for i, a := range st.A {
					if a >= 0 {
						st.ub[i] += st.perCenter[a]
						st.lb[i] -= maxShift
						st.rlb[i] -= rawShift
					}
				}
			} else {
				for i, a := range st.A[:st.nSample] {
					if a >= 0 {
						st.ub[i] += st.perCenter[a]
						st.lb[i] -= maxShift
					}
				}
			}
		case BoundsElkan:
			// Raw-distance bounds shrink by each center's own movement;
			// the upper bound (effective space) grows like Hamerly's.
			for b := 0; b < st.k; b++ {
				st.perCenter[b] = st.deltas[b] / st.influence[b]
			}
			for i, a := range st.A[:st.nSample] {
				base := i * st.k
				for b := 0; b < st.k; b++ {
					if st.deltas[b] > 0 {
						st.lbk[base+b] -= st.deltas[b]
					}
				}
				if a >= 0 {
					st.ub[i] += st.perCenter[a]
				}
			}
		}

		// The additive updates above re-validate every stored bound
		// against the moved centers; record that for cross-run carrying
		// (the convergence break above leaves boundCenters at the last
		// kernel pass's centers, which is exactly what its bounds are
		// valid for — the final sub-threshold movement is part of the
		// next run's drift correction).
		copy(st.boundCenters, st.newCenters)

		// Influence erosion after movement (Eqs. (2)–(3)): centers that
		// moved far regress their influence toward 1.
		if st.cfg.Erosion && moved {
			copy(st.oldInfluence, st.influence)
			beta := meanNearestCenterDistance(st.centers, st.k, st.dim)

			if beta > 0 {
				for b := 0; b < st.k; b++ {
					alpha := 2/(1+math.Exp(-st.deltas[b]/beta)) - 1
					st.influence[b] = math.Exp((1 - alpha) * math.Log(st.influence[b]))
				}
				st.scaleBoundsForInfluence(st.oldInfluence)
			}
		}

		copy(st.centers, st.newCenters)

		// Grow the sample (§4.5: "After each round with center movement,
		// the sample size is doubled"); once it covers the rank, the
		// points go back to ingest order.
		if sampling {
			st.nSample *= 2
			if st.nSample >= st.X.Len() {
				st.unshuffle()
			}
		}
	}

	// Every point must be assigned: points outside the final sample only
	// exist if MaxIter ran out during sampling; assign them now.
	if st.nSample < st.X.Len() {
		st.unshuffle()
		st.assignAndBalance()
	}
	for i := range st.A {
		if st.A[i] < 0 {
			st.A[i] = st.nearestCenter(i)
		}
	}

	if st.cfg.Strict && !st.info.Balanced {
		st.strictFinish()
	}

	// Leave the bounds reusable for the next warm run on this state.
	st.recordCarry()
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// nearestCenter returns the cluster with minimal effective distance to
// local point i. Squared effective distances decide the argmin — x² is
// monotone — so no square root is taken.
func (st *state) nearestCenter(i int) int32 {
	best, bestV := int32(0), math.Inf(1)
	for b := 0; b < st.k; b++ {
		inf := st.influence[b]
		v := st.pointCenterDist2(i, b) / (inf * inf)
		if v < bestV {
			best, bestV = int32(b), v
		}
	}
	st.info.DistCalcs += int64(st.k)
	return best
}

// centerRow returns center b of the flat centers buffer.
func (st *state) centerRow(b int) []float64 {
	return st.centers[b*st.dim : (b+1)*st.dim]
}

// pointCenterDist2 returns the squared raw distance between local point
// i and center b. The axis terms accumulate left to right from zero, so
// the result is bit-identical to the kernels' arithmetic at any
// dimension (the Dist2 switch at d ≤ geom.MaxDim, colsDist2 above).
func (st *state) pointCenterDist2(i, b int) float64 {
	s := 0.0
	row := st.centerRow(b)
	for d, col := range st.X.Col {
		t := col[i] - row[d]
		s += t * t
	}
	return s
}

// computeCenters sets out[b] to the weighted mean of the points assigned
// to b (keeping the old center for empty clusters) and reports whether any
// center is based on at least one point.
func (st *state) computeCenters(out []float64) bool {
	if st.warm || st.cfg.Deterministic {
		return st.computeCentersExact(out)
	}
	vec := st.centVec
	clear(vec)
	px, py, pz := st.X.X, st.X.Y, st.X.Z
	sample := st.A[:st.nSample]
	switch st.dim {
	case 2:
		for i, a := range sample {
			if a < 0 {
				continue
			}
			base := int(a) * 3
			w := st.W[i]
			vec[base] += w * px[i]
			vec[base+1] += w * py[i]
			vec[base+2] += w
		}
	case 3:
		for i, a := range sample {
			if a < 0 {
				continue
			}
			base := int(a) * 4
			w := st.W[i]
			vec[base] += w * px[i]
			vec[base+1] += w * py[i]
			vec[base+2] += w * pz[i]
			vec[base+3] += w
		}
	default:
		cols := st.X.Col
		for i, a := range sample {
			if a < 0 {
				continue
			}
			base := int(a) * (st.dim + 1)
			w := st.W[i]
			for d, col := range cols {
				vec[base+d] += w * col[i]
			}
			vec[base+st.dim] += w
		}
	}
	st.c.AddOps(int64(st.nSample))
	vec = mpi.AllreduceSum(st.c, vec)
	any := false
	for b := 0; b < st.k; b++ {
		base := b * (st.dim + 1)
		obase := b * st.dim
		w := vec[base+st.dim]
		if w <= 0 {
			copy(out[obase:obase+st.dim], st.centerRow(b))
			continue
		}
		any = true
		for d := 0; d < st.dim; d++ {
			out[obase+d] = vec[base+d] / w
		}
	}
	return any
}

// meanNearestCenterDistance approximates the paper's β(C) ("average
// cluster diameter") by the mean nearest-neighbor distance among centers.
func meanNearestCenterDistance(centers []float64, k, dim int) float64 {
	if k < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		best := math.Inf(1)
		ri := centers[i*dim : (i+1)*dim]
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			if d := geom.Dist2Vec(ri, centers[j*dim:(j+1)*dim]); d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(k)
}

// scaleBoundsForInfluence records the bound rescale that influence
// changes demand: effective distances to cluster b scale by old(b)/new(b),
// so ub scales by the own cluster's ratio and the Hamerly lb by the
// global minimum ratio (conservative). Elkan's per-center bounds live in
// raw-distance space and are untouched by influence. The ratios are
// left pending for the next kernel pass to apply per visited point; see
// the pendUbRatio field for why that is exact.
func (st *state) scaleBoundsForInfluence(oldInfluence []float64) {
	if st.cfg.Bounds == BoundsNone {
		return
	}
	st.applyPendingBounds() // defensive: never stack two pending scales
	minRatio := math.Inf(1)
	for b := 0; b < st.k; b++ {
		r := oldInfluence[b] / st.influence[b]
		st.pendUbRatio[b] = r
		if r < minRatio {
			minRatio = r
		}
	}
	st.pendLbRatio = minRatio
	st.pendScaled = true
}

// applyPendingBounds materializes a pending influence rescale with one
// pass over the sampled bounds. Needed only when bounds are read before
// the next kernel pass (the additive Eq. (4)–(5) updates, or a balance
// loop that exhausted its rounds).
func (st *state) applyPendingBounds() {
	if !st.pendScaled {
		return
	}
	st.pendScaled = false
	hamerly := st.cfg.Bounds == BoundsHamerly
	ratio, lbRatio := st.pendUbRatio, st.pendLbRatio
	for i, a := range st.A[:st.nSample] {
		if a >= 0 {
			st.ub[i] *= ratio[a]
			if hamerly {
				st.lb[i] *= lbRatio
			}
		}
	}
}

// strictFinish runs balance-only rounds with a growing influence cap until
// the ε constraint holds (Strict mode; an extension over the paper, which
// relies on enough regular iterations).
func (st *state) strictFinish() {
	saved := st.cfg.InfluenceCap
	for round := 0; round < 300 && !st.info.Balanced; round++ {
		if round > 100 {
			st.cfg.InfluenceCap = 0.25
		}
		st.assignAndBalance()
	}
	st.cfg.InfluenceCap = saved
}
