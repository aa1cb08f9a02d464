package main

import (
	"math"
	"runtime"
	"time"

	"geographer/internal/core"
	"geographer/internal/dsort"
	"geographer/internal/exact"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/repart"
	"geographer/internal/sched"
	"geographer/internal/sfc"
)

// The traced pass replays a workload's script one layer below the facade
// — the same computation (the parent checks the assignment hashes against
// the untraced passes) — so that the benchmark can put spans around the
// layer calls and read the counters the layers return (core.Info,
// repart.Stats, mpi.World.Stats, runtime.MemStats). It then times each
// layer's public kernels directly on the workload's own arrays.

// coreConfig mirrors what the facade builds from its Options.
func coreConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Epsilon = benchEps
	cfg.Seed = seed
	cfg.Workers = 1
	return cfg
}

// opCounters accumulates per-op counts read from the layers' results.
type opCounters struct {
	ops                                       int
	iters, rounds, calcsPerPt, skip, boundary float64
	collectives, bytes, barriers              float64
	mallocs, allocKB                          float64
}

func (c *opCounters) addInfo(in core.Info, n int) {
	c.ops++
	c.iters += float64(in.Iterations)
	c.rounds += float64(in.BalanceRounds)
	c.calcsPerPt += float64(in.DistCalcs) / float64(n)
	c.skip += in.SkipRate()
	c.boundary += in.BoundaryFrac
}

// addWorld adds one op's communication: collectives and barriers per rank
// (every rank enters each one), bytes summed over ranks.
func (c *opCounters) addWorld(stats []mpi.Stats) {
	c.collectives += float64(stats[0].Collectives)
	c.barriers += float64(stats[0].Barriers)
	for _, s := range stats {
		c.bytes += float64(s.CollectiveBytes + s.BytesSent)
	}
}

func (c *opCounters) addMem(before, after *runtime.MemStats) {
	c.mallocs += float64(after.Mallocs - before.Mallocs)
	c.allocKB += float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

func (c *opCounters) emitCore(layer map[string]float64) {
	ops := float64(c.ops)
	layer["core.iterations"] = c.iters / ops
	layer["core.balance_rounds"] = c.rounds / ops
	layer["core.dist_calcs_per_point"] = c.calcsPerPt / ops
	layer["core.skip_rate"] = c.skip / ops
	layer["core.boundary_frac"] = c.boundary / ops
}

func (c *opCounters) emitWorld(layer map[string]float64) {
	ops := float64(c.ops)
	layer["mpi.collectives_per_op"] = c.collectives / ops
	layer["mpi.bytes_per_op"] = c.bytes / ops
	layer["mpi.barriers_per_op"] = c.barriers / ops
}

// checkInfo is the output check on what the core layer reports: a run
// that claims Balanced must report an imbalance within ε.
func checkInfo(r *passResult, op int, in core.Info) {
	if in.Balanced && in.Imbalance > benchEps*(1+1e-9) {
		r.fail(op, "reported Balanced with imbalance %g > %g", in.Imbalance, benchEps)
	}
}

func tracedCold(w *workload, sz size, in *inputs, pc passConfig) *passResult {
	d := in.Sets[0]
	r := newResult(w, sz, in, pc)
	tr := newTracer()
	ps := d.points()

	sSetup := tr.begin("setup", 0, -1)
	op := func(i int, seed int64, cnt *opCounters) []int32 {
		world := mpi.NewWorld(benchRanks)
		tool := core.New(coreConfig(seed))
		runtime.GC()
		sOp := tr.begin("op", setupParent(sSetup, i), i)
		sRun := tr.begin("partition.Run", sOp, i)
		p, err := partition.Run(world, ps, w.K, tool)
		tr.end(sRun)
		dt := tr.end(sOp)
		if i < 0 {
			return nil
		}
		r.OpMs[i] = ms(dt)
		if err != nil {
			r.fail(i, "%v", err)
			return nil
		}
		info := tool.LastInfo()
		tr.reported(sRun, i, []string{"core.sfc", "core.sort", "core.kmeans"},
			[]float64{info.SFCSeconds, info.SortSeconds, info.KMeansSeconds})
		checkInfo(r, i, info)
		cnt.addInfo(info, d.n())
		cnt.addWorld(world.Stats())
		return p.Assign
	}

	for i := 0; i < sz.Warm; i++ {
		op(-1, int64(1000+i), nil)
	}
	r.SetupS = tr.end(sSetup).Seconds()

	var cnt opCounters
	var last []int32
	tw := time.Now()
	for i := 0; i < sz.M; i++ {
		blocks := op(i, int64(i+1), &cnt)
		if blocks == nil {
			continue
		}
		var err error
		if r.OpHash[i], err = checkAssign(blocks, d.n(), w.K); err != nil {
			r.fail(i, "%v", err)
			continue
		}
		r.quality(i, d, d.Weights, blocks, w.K, 1)
		last = blocks
	}
	r.WallS = time.Since(tw).Seconds()
	r.PeakRSSMB = peakRSSMB()
	if last == nil {
		return r
	}

	sfcMs, sortMs := durationsMs(tr.spans, "core.sfc"), durationsMs(tr.spans, "core.sort")
	ingest := make([]float64, len(sfcMs))
	for i := range ingest {
		ingest[i] = sfcMs[i] + sortMs[i]
	}
	r.Layer["core.ingest_ms"] = median(ingest)
	r.Layer["core.kmeans_ms"] = median(durationsMs(tr.spans, "core.kmeans"))
	cnt.emitCore(r.Layer)
	cnt.emitWorld(r.Layer)
	layerBench(r, tr, d, w.K, benchRanks, last)
	r.Spans = tr.spans
	return r
}

func tracedWarm(w *workload, sz size, in *inputs, pc passConfig) *passResult {
	d := in.Sets[0]
	r := newResult(w, sz, in, pc)
	tr := newTracer()
	wts := make([]float64, d.n())
	world := mpi.NewWorld(benchRanks)

	sSetup := tr.begin("setup", 0, -1)
	waveWeights(d, 0, 0, wts)
	// The facade hands the session private copies; so does the replay.
	ps := &geom.PointSet{Dim: d.Dim, Coords: append([]float64(nil), d.Coords...), Weight: append([]float64(nil), wts...)}
	sNew := tr.begin("repart.NewSession", sSetup, -1)
	s, err := repart.NewSession(world, ps, w.K, coreConfig(1))
	r.Layer["repart.new_session_ms"] = ms(tr.end(sNew))
	if err != nil {
		r.fail(-1, "NewSession: %v", err)
		return r
	}
	defer s.Close()
	r.Layer["core.ingest_ms"] = s.IngestSeconds() * 1e3
	sCold := tr.begin("repart.Session.Partition", sSetup, -1)
	_, err = s.Partition()
	r.Layer["repart.cold_partition_ms"] = ms(tr.end(sCold))
	if err != nil {
		r.fail(-1, "cold partition: %v", err)
		return r
	}

	var cnt opCounters
	var m0, m1 runtime.MemStats
	var flush []float64
	var last []int32
	step := func(i, waveStep int) {
		waveWeights(d, waveStep, 0, wts)
		world.ResetStats()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		sOp := tr.begin("op", setupParent(sSetup, i), i)
		sUp := tr.begin("repart.Session.UpdateWeights", sOp, i)
		err := s.UpdateWeights(wts)
		up := tr.end(sUp)
		if err != nil {
			tr.end(sOp)
			r.fail(i, "%v", err)
			return
		}
		sRe := tr.begin("repart.Session.Repartition", sOp, i)
		p, st, err := s.Repartition()
		re := tr.end(sRe)
		dt := tr.end(sOp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.fail(i, "%v", err)
			return
		}
		if i < 0 {
			return
		}
		r.OpMs[i] = ms(dt)
		tr.reported(sRe, i, []string{"core.kmeans"}, []float64{st.Info.KMeansSeconds})
		// What a warm step spends outside the k-means: the weight copy,
		// the resident flush, center recovery, result assembly and the
		// migration count.
		flush = append(flush, ms(up+re)-st.Info.KMeansSeconds*1e3)
		checkInfo(r, i, st.Info)
		cnt.addInfo(st.Info, d.n())
		cnt.addWorld(world.Stats())
		cnt.addMem(&m0, &m1)
		if r.OpHash[i], err = checkAssign(p.Assign, d.n(), w.K); err != nil {
			r.fail(i, "%v", err)
			return
		}
		r.quality(i, d, wts, p.Assign, w.K, st.MigratedWeight/st.TotalWeight)
		last = p.Assign
	}
	for i := 1; i <= sz.Warm; i++ {
		step(-1, i)
	}
	r.SetupS = tr.end(sSetup).Seconds()

	tw := time.Now()
	for i := 0; i < sz.M; i++ {
		step(i, sz.Warm+1+i)
	}
	r.WallS = time.Since(tw).Seconds()
	r.PeakRSSMB = peakRSSMB()
	if last == nil || cnt.ops == 0 {
		return r
	}

	r.Layer["core.kmeans_ms"] = median(durationsMs(tr.spans, "core.kmeans"))
	r.Layer["repart.step_ms"] = median(durationsMs(tr.spans, "op"))
	r.Layer["repart.update_flush_ms"] = median(flush)
	r.Layer["repart.allocs_per_step"] = cnt.mallocs / float64(cnt.ops)
	r.Layer["repart.alloc_kb_per_step"] = cnt.allocKB / float64(cnt.ops)
	cnt.emitCore(r.Layer)
	cnt.emitWorld(r.Layer)
	checkpointBench(r, tr, s, coreConfig(1), benchRanks)
	layerBench(r, tr, d, w.K, benchRanks, last)
	scaleCell(r, tr, d)
	r.Spans = tr.spans
	return r
}

// setupParent makes warm-up ops (op < 0) children of the set-up span.
func setupParent(setup, op int) int {
	if op < 0 {
		return setup
	}
	return 0
}

// best runs fn reps times (prep, untimed, before each) under a span and
// returns the shortest run: like the passes, interference only adds time.
func best(tr *tracer, name string, reps int, prep, fn func()) time.Duration {
	b := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		id := tr.begin(name, 0, -1)
		fn()
		if d := tr.end(id); d < b {
			b = d
		}
	}
	return b
}

// worldBest times a collective section: every rank runs section between
// two barriers, rank 0 clocks it; the shortest of reps runs is returned.
// prep (untimed) builds each rank's private input.
func worldBest(tr *tracer, name string, ranks, reps int, prep func(c *mpi.Comm) any, section func(c *mpi.Comm, in any)) time.Duration {
	b := time.Duration(math.MaxInt64)
	world := mpi.NewWorld(ranks)
	for i := 0; i < reps; i++ {
		id := tr.begin(name, 0, -1)
		var d time.Duration
		err := world.Run(func(c *mpi.Comm) {
			var in any
			if prep != nil {
				in = prep(c)
			}
			c.Barrier()
			t0 := time.Now()
			section(c, in)
			c.Barrier()
			if c.Rank() == 0 {
				d = time.Since(t0)
			}
		})
		tr.end(id)
		if err == nil && d < b {
			b = d
		}
	}
	return b
}

const benchReps = 5

// layerBench times the public kernels of sfc, dsort, partition, geom,
// exact, mpi and sched on the workload's own points (and the centers of
// one of its partitions), at the workload's dimension and rank count.
func layerBench(r *passResult, tr *tracer, d *dataset, k, ranks int, blocks []int32) {
	n, dim := d.n(), d.Dim
	fn := float64(n)
	ps := d.points()
	wts := d.Weights
	if wts == nil {
		wts = make([]float64, n)
		for i := range wts {
			wts[i] = 1
		}
	}
	X := geom.MakeCols(dim, n)
	for i := 0; i < n; i++ {
		X.SetVec(i, d.Coords[i*dim:(i+1)*dim])
	}

	// partition: the scatter every one-shot call and session start pays.
	sc := worldBest(tr, "partition.Scatter", ranks, benchReps, nil, func(c *mpi.Comm, _ any) {
		partition.Scatter(c, ps)
	})
	r.Layer["core.scatter_ms"] = ms(sc)

	// sfc + dsort + the redistribution collective: spatial inputs only.
	if dim <= geom.MaxDim {
		curve := sfc.NewCurve(ps.Bounds(), dim)
		keys := make([]uint64, n)
		kd := best(tr, "sfc.Curve.KeysCols", benchReps, nil, func() { curve.KeysCols(&X, keys) })
		r.Layer["sfc.keys_ns_per_point"] = float64(kd.Nanoseconds()) / fn

		fill := func(lo, hi int) *dsort.Cols {
			c := dsort.NewCols(dim, hi-lo)
			copy(c.Keys, keys[lo:hi])
			copy(c.W, wts[lo:hi])
			for a := 0; a < dim; a++ {
				copy(c.C[a], X.Col[a][lo:hi])
			}
			for i := range c.IDs {
				c.IDs[i] = int64(lo + i)
			}
			return c
		}
		var cols *dsort.Cols
		ld := best(tr, "dsort.SortColsLocal", benchReps, func() { cols = fill(0, n) }, func() { dsort.SortColsLocal(cols) })
		r.Layer["dsort.local_sort_ns_per_point"] = float64(ld.Nanoseconds()) / fn

		chunk := func(c *mpi.Comm) any { return fill(c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()) }
		sd := worldBest(tr, "dsort.SampleSortCols+RebalanceCols", ranks, benchReps, chunk, func(c *mpi.Comm, in any) {
			dsort.RebalanceCols(c, dsort.SampleSortCols(c, in.(*dsort.Cols)))
		})
		r.Layer["dsort.sort_ns_per_point"] = float64(sd.Nanoseconds()) / fn

		if ranks > 1 {
			ad := worldBest(tr, "mpi.AlltoallCols", ranks, benchReps, chunk, func(c *mpi.Comm, in any) {
				cl := in.(*dsort.Cols)
				counts := make([]int, c.Size())
				for dst := range counts {
					counts[dst] = (dst+1)*cl.Len()/c.Size() - dst*cl.Len()/c.Size()
				}
				mpi.AlltoallCols(c, cl.Keys, cl.IDs, append([][]float64{cl.W}, cl.C...), counts)
			})
			r.Layer["mpi.alltoallcols_ns_per_point"] = float64(ad.Nanoseconds()) / fn
		}
	}

	// geom: the distance batch, a full assignment pass (no bounds: n·k
	// evaluations) and a pass over converged bounds (the skip path).
	centers, err := repart.RecoverCenters(ps, blocks, k)
	if err != nil {
		r.fail(-1, "layer bench: %v", err)
		return
	}
	out := make([]float64, n)
	var dd time.Duration
	if dim <= geom.MaxDim {
		var q geom.Point
		copy(q[:], centers[:dim])
		dd = best(tr, "geom.Dist2Batch", benchReps, nil, func() { geom.Dist2Batch(dim, X.X, X.Y, X.Z, q, out) })
	} else {
		dd = best(tr, "geom.Dist2BatchND", benchReps, nil, func() { geom.Dist2BatchND(X.Col, centers[:dim], out) })
	}
	r.Layer["geom.dist2_batch_ns_per_point"] = float64(dd.Nanoseconds()) / fn

	cc := geom.MakeCols(dim, k)
	kr := geom.AssignKernel{
		PX: X.X, PY: X.Y, PZ: X.Z, W: wts, PC: X.Col,
		CX: cc.X, CY: cc.Y, CZ: cc.Z, CC: cc.Col,
		InvInf2: make([]float64, k), Order: make([]int32, k), DistBB2: make([]float64, k), K: k,
		A: make([]int32, n), Ub: make([]float64, n), Lb: make([]float64, n), LocalW: make([]float64, k),
	}
	for b := 0; b < k; b++ {
		cc.SetVec(b, centers[b*dim:(b+1)*dim])
		kr.InvInf2[b] = 1
		kr.Order[b] = int32(b)
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	reset := func() {
		for i := range kr.A {
			kr.A[i] = -1
		}
	}
	fd := best(tr, "geom.AssignKernel.RunBounded/full", benchReps, reset, func() { kr.RunBounded(dim, idx, false) })
	r.Layer["geom.assign_full_ns_per_pc"] = float64(fd.Nanoseconds()) / (fn * float64(k))
	bd := best(tr, "geom.AssignKernel.RunBounded/skip", benchReps, nil, func() { kr.RunBounded(dim, idx, true) })
	r.Layer["geom.assign_bounded_ns_per_point"] = float64(bd.Nanoseconds()) / fn

	// exact: one Add into a bank of k accumulators (the per-block weight
	// reduction) and into a single accumulator.
	rows := exact.NewRowSums(k)
	rd := best(tr, "exact.RowSums.Add", benchReps, rows.Reset, func() {
		for i, b := range blocks {
			rows.Add(int(b), wts[i])
		}
	})
	r.Layer["exact.rowsums_add_ns"] = float64(rd.Nanoseconds()) / fn
	var sum exact.Sum
	ed := best(tr, "exact.Sum.Add", benchReps, sum.Reset, func() {
		for i := range wts {
			sum.Add(wts[i] * X.X[i])
		}
	})
	r.Layer["exact.sum_add_ns"] = float64(ed.Nanoseconds()) / fn

	// mpi: the per-round balance collective (k float64) and a bare barrier.
	const collReps = 2000
	vec := make([][]float64, ranks)
	for i := range vec {
		vec[i] = make([]float64, 2*k)
	}
	ar := worldBest(tr, "mpi.AllreduceSumInto", ranks, benchReps, nil, func(c *mpi.Comm, _ any) {
		v := vec[c.Rank()]
		for i := 0; i < collReps; i++ {
			mpi.AllreduceSumInto(c, v[:k], v[k:])
		}
	})
	r.Layer["mpi.allreduce_us"] = float64(ar.Nanoseconds()) / 1e3 / collReps
	br := worldBest(tr, "mpi.Comm.Barrier", ranks, benchReps, nil, func(c *mpi.Comm, _ any) {
		for i := 0; i < collReps; i++ {
			c.Barrier()
		}
	})
	r.Layer["mpi.barrier_us"] = float64(br.Nanoseconds()) / 1e3 / collReps

	// sched: an empty-body fan-out over the kernel chunk grid.
	lease := sched.NewPool(benchProcs).Lease(benchProcs)
	grid := geom.ChunkGrid(n)
	fe := best(tr, "sched.Lease.ForEach", benchReps, nil, func() {
		for i := 0; i < collReps; i++ {
			lease.ForEach(benchProcs, grid, func(int) {})
		}
	})
	r.Layer["sched.foreach_us"] = float64(fe.Nanoseconds()) / 1e3 / collReps
}

// checkpointBench times the session snapshot codec on a live session.
func checkpointBench(r *passResult, tr *tracer, s *repart.Session, cfg core.Config, ranks int) {
	var data []byte
	var err error
	cd := best(tr, "repart.Session.Checkpoint", benchReps, nil, func() { data, err = s.Checkpoint() })
	if err != nil {
		r.fail(-1, "checkpoint: %v", err)
		return
	}
	r.Layer["repart.checkpoint_ms"] = ms(cd)
	r.Layer["repart.checkpoint_mb"] = float64(len(data)) / (1 << 20)
	rd := best(tr, "repart.NewSessionFromCheckpoint", benchReps, nil, func() {
		var rs *repart.Session
		if rs, err = repart.NewSessionFromCheckpoint(mpi.NewWorld(ranks), data, cfg); err == nil {
			rs.Close()
		}
	})
	if err != nil {
		r.fail(-1, "restore: %v", err)
		return
	}
	r.Layer["repart.restore_ms"] = ms(rd)
}

// scaleCell is the counts-only cell for the many-ranks regime: one warm
// step at n = 50 000, k = 16 on 64 simulated ranks. With more ranks than
// cores wall-clock would time the Go scheduler, so only counts are kept.
func scaleCell(r *passResult, tr *tracer, d *dataset) {
	const cellN, cellK, cellP = 50_000, 16, 64
	n := min(cellN, d.n())
	sub := &dataset{Dim: d.Dim, Coords: d.Coords[:n*d.Dim]}
	wts := make([]float64, n)
	waveWeights(sub, 0, 0, wts)
	world := mpi.NewWorld(cellP)
	ps := &geom.PointSet{Dim: d.Dim, Coords: append([]float64(nil), sub.Coords...), Weight: append([]float64(nil), wts...)}
	id := tr.begin("scale_cell_p64", 0, -1)
	defer tr.end(id)
	s, err := repart.NewSession(world, ps, cellK, coreConfig(1))
	if err != nil {
		r.fail(-1, "scale cell: %v", err)
		return
	}
	defer s.Close()
	if _, err := s.Partition(); err != nil {
		r.fail(-1, "scale cell: %v", err)
		return
	}
	var m0, m1 runtime.MemStats
	for step := 1; step <= 2; step++ { // step 1 warms the carried bounds
		waveWeights(sub, step, 0, wts)
		world.ResetStats()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		err := s.UpdateWeights(wts)
		if err == nil {
			_, _, err = s.Repartition()
		}
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.fail(-1, "scale cell: %v", err)
			return
		}
	}
	var cnt opCounters
	cnt.addWorld(world.Stats())
	cnt.addMem(&m0, &m1)
	r.Layer["mpi.allocs_per_step_p64"] = cnt.mallocs
	r.Layer["mpi.collectives_per_step_p64"] = cnt.collectives
	r.Layer["mpi.bytes_per_step_p64"] = cnt.bytes
}
