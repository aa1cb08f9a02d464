package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"geographer"
	"geographer/internal/metrics"
)

// passConfig says what kind of pass a child runs.
type passConfig struct {
	Pass   int    // 1-based; pass 1 also evaluates partition quality
	Traced bool   // the per-layer pass: layered calls, spans, microbenches
	TmpDir string // scratch directory inside the checkout (spill store)
}

func (pc passConfig) eval() bool { return pc.Pass == 1 || pc.Traced }

// passResult is what one child pass reports to the parent.
type passResult struct {
	Pass   int
	Points float64 // points stepped by the whole script

	SetupS    float64
	OpMs      []float64 // one entry per script op, in script order
	OpHash    []uint64  // assignment hash per op (identical across passes)
	WallS     float64   // timed wall of the whole script (serve: both clients)
	PeakRSSMB float64

	FailOps   []int // failed script ops; -1 = set-up or a whole-pass check
	FailNotes []string

	// Quality per op, evaluated outside the timed intervals (eval passes
	// only; nil otherwise).
	Imbalance []float64
	CommVol   []float64
	Migrated  []float64 // migrated weight / total weight
	EvalMs    []float64 // what the evaluation itself cost

	Counts map[string]float64 // exact counters that must repeat across passes
	Layer  map[string]float64 // per-layer metrics (traced pass)
	Spans  []span
}

func newResult(w *workload, sz size, in *inputs, pc passConfig) *passResult {
	r := &passResult{
		Pass:   pc.Pass,
		Points: float64(sz.M) * float64(in.Sets[0].n()),
		OpMs:   make([]float64, sz.M),
		OpHash: make([]uint64, sz.M),
		Counts: map[string]float64{},
		Layer:  map[string]float64{},
	}
	if pc.eval() {
		r.Imbalance = make([]float64, sz.M)
		r.CommVol = make([]float64, sz.M)
		r.Migrated = make([]float64, sz.M)
		r.EvalMs = make([]float64, sz.M)
	}
	return r
}

// fail records a failed op (error, bad status, or failed output check).
func (r *passResult) fail(op int, format string, args ...any) {
	r.FailOps = append(r.FailOps, op)
	if len(r.FailNotes) < 8 {
		r.FailNotes = append(r.FailNotes, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

// checkAssign is the per-op output check: one block id per point, every
// id in [0, k). It returns the assignment's hash for the cross-pass and
// solo-replay comparisons.
func checkAssign(blocks []int32, n, k int) (uint64, error) {
	if len(blocks) != n {
		return 0, fmt.Errorf("%d assignments for %d points", len(blocks), n)
	}
	for i, b := range blocks {
		if b < 0 || int(b) >= k {
			return 0, fmt.Errorf("point %d in block %d, k=%d", i, b, k)
		}
	}
	return hashAssign(blocks), nil
}

func hashAssign(blocks []int32) uint64 {
	h := fnv.New64a()
	if len(blocks) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&blocks[0])), 4*len(blocks)))
	}
	return h.Sum64()
}

// quality records op i's partition quality: imbalance under weights w,
// total communication volume on the dataset's graph, and the share of the
// weight that changed block. Slots are per op, so the serve workload's two
// clients may record concurrently.
func (r *passResult) quality(i int, d *dataset, w []float64, blocks []int32, k int, migrated float64) {
	t0 := time.Now()
	ps := d.points()
	ps.Weight = w
	r.Imbalance[i] = metrics.Imbalance(metrics.BlockWeights(ps, blocks, k))
	var tot int64
	for _, v := range metrics.CommVolumes(d.graph(), blocks, k) {
		tot += v
	}
	r.CommVol[i] = float64(tot)
	r.Migrated[i] = migrated
	r.EvalMs[i] = ms(time.Since(t0))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runCold replays a cold workload: every op is one geographer.Partition
// call on the same points with its own algorithm seed, so the ops are
// independent and op i is the same computation in every pass.
func runCold(w *workload, sz size, in *inputs, pc passConfig) *passResult {
	if pc.Traced {
		return tracedCold(w, sz, in, pc)
	}
	d := in.Sets[0]
	r := newResult(w, sz, in, pc)
	opts := geographer.Options{K: w.K, Epsilon: benchEps, Processes: benchRanks, Workers: 1}

	t0 := time.Now()
	for i := 0; i < sz.Warm; i++ {
		opts.Seed = int64(1000 + i)
		if _, err := geographer.Partition(d.Coords, d.Dim, d.Weights, opts); err != nil {
			r.fail(-1, "warm-up: %v", err)
		}
	}
	r.SetupS = time.Since(t0).Seconds()

	tw := time.Now()
	for i := 0; i < sz.M; i++ {
		opts.Seed = int64(i + 1)
		runtime.GC()
		t := time.Now()
		blocks, err := geographer.Partition(d.Coords, d.Dim, d.Weights, opts)
		r.OpMs[i] = ms(time.Since(t))
		if err != nil {
			r.fail(i, "%v", err)
			continue
		}
		if r.OpHash[i], err = checkAssign(blocks, d.n(), w.K); err != nil {
			r.fail(i, "%v", err)
			continue
		}
		if pc.eval() {
			// A cold partition places every point from nothing: all of
			// the weight moves (README.md, metric glossary).
			r.quality(i, d, d.Weights, blocks, w.K, 1)
		}
	}
	r.WallS = time.Since(tw).Seconds()
	r.PeakRSSMB = peakRSSMB()
	return r
}

// runWarm replays the streaming workload: one Session, one travelling
// load wave, op = UpdateWeights + Repartition. Set-up is everything a
// user pays before the first timed step: session construction (scatter +
// ingest), the cold partition the chain starts from, the warm-up steps.
func runWarm(w *workload, sz size, in *inputs, pc passConfig) *passResult {
	if pc.Traced {
		return tracedWarm(w, sz, in, pc)
	}
	d := in.Sets[0]
	r := newResult(w, sz, in, pc)
	opts := geographer.Options{K: w.K, Epsilon: benchEps, Processes: benchRanks, Workers: 1, Seed: 1}
	wts := make([]float64, d.n())

	t0 := time.Now()
	waveWeights(d, 0, 0, wts)
	s, err := geographer.NewSession(d.Coords, d.Dim, wts, opts)
	if err != nil {
		r.fail(-1, "NewSession: %v", err)
		return r
	}
	defer s.Close()
	if _, err := s.Partition(); err != nil {
		r.fail(-1, "cold partition: %v", err)
		return r
	}
	for i := 1; i <= sz.Warm; i++ {
		waveWeights(d, i, 0, wts)
		if err := s.UpdateWeights(wts); err != nil {
			r.fail(-1, "warm-up: %v", err)
		}
		if _, err := s.Repartition(); err != nil {
			r.fail(-1, "warm-up: %v", err)
		}
	}
	r.SetupS = time.Since(t0).Seconds()

	tw := time.Now()
	for i := 0; i < sz.M; i++ {
		waveWeights(d, sz.Warm+1+i, 0, wts)
		runtime.GC()
		t := time.Now()
		err := s.UpdateWeights(wts)
		var res geographer.RepartResult
		if err == nil {
			res, err = s.Repartition()
		}
		r.OpMs[i] = ms(time.Since(t))
		if err != nil {
			r.fail(i, "%v", err)
			continue
		}
		if r.OpHash[i], err = checkAssign(res.Blocks, d.n(), w.K); err != nil {
			r.fail(i, "%v", err)
			continue
		}
		if pc.eval() {
			r.quality(i, d, wts, res.Blocks, w.K, res.MigratedWeight/res.TotalWeight)
		}
	}
	r.WallS = time.Since(tw).Seconds()
	r.PeakRSSMB = peakRSSMB()
	return r
}
