package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// suiteConfig is one run of the benchmark.
type suiteConfig struct {
	Workloads []*workload
	Seed      int64
	Passes    int  // K untraced passes per workload
	Traced    bool // also run the traced pass and report the per-layer metrics
	OutDir    string

	// The smoke test shrinks the workloads and runs the passes in this
	// process; the real benchmark gives every pass a fresh child.
	Sizes     map[string]size
	InProcess bool
}

func (cfg suiteConfig) size(w *workload) size {
	if sz, ok := cfg.Sizes[w.Name]; ok {
		return sz
	}
	return w.Full
}

// childTimeout bounds one pass; a healthy pass takes about ten seconds.
const childTimeout = 150 * time.Second

// runSuite generates every input once, runs the passes round-robin over
// the workloads (so slow drift of the host hits all of them alike), with
// the traced passes halfway, and aggregates.
func runSuite(cfg suiteConfig) (*suiteReport, error) {
	rep := &suiteReport{Seed: cfg.Seed, Host: host()}
	tmp := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	type state struct {
		w        *workload
		in       *inputs
		inFile   string
		genS     float64
		untraced []*passResult
		traced   *passResult
	}
	states := make([]*state, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		t0 := time.Now()
		in, err := w.generate(cfg.size(w), cfg.Seed)
		if err != nil {
			return nil, err
		}
		st := &state{w: w, genS: time.Since(t0).Seconds()}
		if cfg.InProcess {
			st.in = in
		} else {
			st.inFile = filepath.Join(tmp, "inputs-"+w.Name+".gob")
			if err := saveInputs(st.inFile, in); err != nil {
				return nil, err
			}
		}
		states[i] = st
	}

	var calib []float64
	run := func(st *state, pc passConfig) (*passResult, error) {
		calib = append(calib, calibrate())
		pc.TmpDir = filepath.Join(tmp, fmt.Sprintf("%s-pass%d", st.w.Name, pc.Pass))
		if err := os.MkdirAll(pc.TmpDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(pc.TmpDir)
		if cfg.InProcess {
			return st.w.run(st.w, cfg.size(st.w), st.in, pc), nil
		}
		return spawn(st.w, st.inFile, pc)
	}
	for p := 1; p <= cfg.Passes; p++ {
		for _, st := range states {
			r, err := run(st, passConfig{Pass: p})
			if err != nil {
				return nil, err
			}
			st.untraced = append(st.untraced, r)
		}
		// The traced passes sit in the middle of the untraced ones, so a
		// drifting host does not read as tracing overhead (or as none).
		if cfg.Traced && p == (cfg.Passes+1)/2 {
			for _, st := range states {
				r, err := run(st, passConfig{Pass: cfg.Passes + 1, Traced: true})
				if err != nil {
					return nil, err
				}
				st.traced = r
			}
		}
	}

	sort.Float64s(calib)
	calibMs := calib[len(calib)/2]
	if spread := calib[len(calib)-1] / calib[0]; spread > 1.05 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("host.calib_ms moved by %.1f%% between passes (%.2f..%.2f ms): the host was disturbed", (spread-1)*100, calib[0], calib[len(calib)-1]))
	}
	for _, st := range states {
		wr := aggregate(st.w, st.untraced, st.traced)
		if wr.PerLayer != nil {
			wr.PerLayer["mesh.inputgen_s"] = st.genS
			wr.PerLayer["host.calib_ms"] = calibMs
			wr.PerLayer["host.pass_spread"] = wr.passSpread
		}
		if wr.passSpread > 1.05 {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("%s: host.pass_spread %.3f: the second-best pass was %.1f%% slower than the best", st.w.Name, wr.passSpread, (wr.passSpread-1)*100))
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	for _, wn := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "bench: warning: %s\n", wn)
	}
	return rep, nil
}

// spawn runs one pass in a fresh child process, so heap state, lazy
// initialisation and the resident-set high-water mark belong to that pass
// alone, and waits for it to end.
func spawn(w *workload, inFile string, pc passConfig) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", w.Name, "-pass", strconv.Itoa(pc.Pass),
		"-traced="+strconv.FormatBool(pc.Traced), "-inputs", inFile, "-tmp", pc.TmpDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", w.Name, pc.Pass, err)
	}
	r := new(passResult)
	if err := json.Unmarshal(out.Bytes(), r); err != nil {
		return nil, fmt.Errorf("%s pass %d: result: %w", w.Name, pc.Pass, err)
	}
	return r, nil
}

// childMain is the child process: load the inputs, replay the script once,
// print the result.
func childMain(name, inFile string, pc passConfig) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	in, err := loadInputs(inFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sz := w.Full
	r := w.run(w, sz, in, pc)
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// calibrate times a fixed pure-Go loop — four independent squared-distance
// accumulators streaming a cache-resident array, throughput-bound like the
// partitioner's kernels — as a canary for a disturbed or throttled host
// that is independent of the code under test. Best of three, so that a
// child still being torn down on the other core does not count.
func calibrate() float64 {
	x := calibData[:]
	best := math.Inf(1)
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		var s0, s1, s2, s3 float64
		for rep := 0; rep < 500; rep++ {
			for i := 0; i+3 < len(x); i += 4 {
				d0, d1, d2, d3 := x[i]-0.5, x[i+1]-0.25, x[i+2]-0.125, x[i+3]-0.75
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
		}
		calibSink = s0 + s1 + s2 + s3
		best = min(best, ms(time.Since(t0)))
	}
	return best
}

var (
	calibData [1 << 15]float64 // 256 KB
	calibSink float64
)

// aggregate folds a workload's passes into its report. Interference on a
// shared host only ever adds time, so the time of script op i is the
// minimum over the passes; percentiles and throughput are taken over those
// per-op minima.
func aggregate(w *workload, untraced []*passResult, traced *passResult) *workloadReport {
	first := untraced[0]
	m := len(first.OpMs)
	wr := &workloadReport{Name: w.Name, Why: w.Why, Samples: m, Passes: len(untraced), Attempted: m}
	all := untraced
	if traced != nil {
		all = append(append([]*passResult(nil), untraced...), traced)
	}

	// Failures: an op fails if any pass failed it, or if its assignment
	// hash is not the same in every pass (traced replay included).
	failedOp := make([]bool, m)
	for _, r := range all {
		for _, op := range r.FailOps {
			if op >= 0 {
				failedOp[op] = true
			} else {
				wr.Failed++
			}
		}
		for _, n := range r.FailNotes {
			wr.Notes = append(wr.Notes, fmt.Sprintf("pass %d: %s", r.Pass, n))
		}
		for i, h := range r.OpHash {
			if h != first.OpHash[i] && !failedOp[i] {
				failedOp[i] = true
				wr.Notes = append(wr.Notes, fmt.Sprintf("pass %d: op %d: assignment differs from pass 1", r.Pass, i))
			}
		}
		for name, v := range first.Counts {
			if r.Counts[name] != v {
				wr.Failed++
				wr.Notes = append(wr.Notes, fmt.Sprintf("pass %d: %s = %g, pass 1 had %g", r.Pass, name, r.Counts[name], v))
			}
		}
	}
	for _, f := range failedOp {
		if f {
			wr.Failed++
		}
	}
	wr.Correct = wr.Failed == 0

	opMin := append([]float64(nil), first.OpMs...)
	var setups, totals, rates []float64
	for _, r := range untraced {
		total := 0.0
		for i, t := range r.OpMs {
			opMin[i] = min(opMin[i], t)
			total += t
		}
		setups = append(setups, r.SetupS)
		totals = append(totals, total)
		wr.PassMs = append(wr.PassMs, total)
		wr.PassRSS = append(wr.PassRSS, r.PeakRSSMB)
		rates = append(rates, r.Points/r.WallS)
	}
	sort.Float64s(totals)
	sumMin := 0.0
	for _, t := range opMin {
		sumMin += t
	}
	imbMax := 0.0
	for _, v := range first.Imbalance {
		imbMax = max(imbMax, v)
	}
	wr.EndToEnd = map[string]float64{
		"setup_s":       slices.Min(setups),
		"op_p50_ms":     percentile(opMin, 0.50),
		"op_p75_ms":     percentile(opMin, 0.75),
		"points_per_s":  first.Points / (sumMin / 1e3),
		"peak_rss_mb":   slices.Min(wr.PassRSS),
		"imbalance_max": imbMax,
		"comm_volume":   mean(first.CommVol),
		"migrated_frac": mean(first.Migrated),
	}
	if w.Overlap {
		// Throughput is the best pass's points over its wall.
		wr.EndToEnd["points_per_s"] = slices.Max(rates)
	}

	if traced != nil {
		wr.PerLayer = map[string]float64{}
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = traced.Layer[d.Name] // 0: layer not crossed
		}
		wr.PerLayer["metrics.evaluate_ms"] = mean(traced.EvalMs)
		// Each traced op against the same op's mean untraced time — one
		// sample against the typical sample, so host noise cancels instead
		// of reading as overhead (as it would against the minima).
		ratios := make([]float64, m)
		for i := range ratios {
			var same []float64
			for _, r := range untraced {
				same = append(same, r.OpMs[i])
			}
			ratios[i] = traced.OpMs[i] / mean(same)
		}
		wr.PerLayer["trace.overhead_ratio"] = median(ratios)
		wr.spans = traced.Spans
	}
	if len(totals) > 1 {
		wr.passSpread = totals[1] / totals[0]
	}
	return wr
}
