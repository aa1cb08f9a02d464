// Command bench is the repository's one repeatable benchmark: four
// workloads, min-of-passes timing in fresh child processes, and one traced
// pass per workload for the per-layer numbers. See README.md in this
// directory for the protocol, the workloads and the metric glossary.
//
//	go run ./bench -seed 1            whole suite, human-readable, writes bench/out/
//	go run ./bench -repeat 2          suite twice, repeatability table (markdown)
//	bash bench/run.sh --workload cold_mesh2d --seed 1 --seconds 20 --trace 0
//	                                  one workload, one JSON result line (BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with one JSON result line (default: all, as a table)")
		seed         = flag.Int64("seed", 1, "run seed: draws the relabelling every dataset is presented under")
		seconds      = flag.Int("seconds", 20, "measuring time per workload: the pass count is K = max(3, seconds/4), a pass being about 4 s")
		trace        = flag.String("trace", "", "0: end-to-end metrics, 1: per-layer metrics from a traced pass (default: both)")
		repeat       = flag.Int("repeat", 1, "run the whole suite this many times and compare the end-to-end metrics")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace-<workload>.jsonl")

		child  = flag.String("child", "", "internal: run one pass of this workload and print its result")
		pass   = flag.Int("pass", 1, "internal: pass number of the child")
		traced = flag.Bool("traced", false, "internal: the child runs the traced pass")
		inFile = flag.String("inputs", "", "internal: the child's input file")
		tmpDir = flag.String("tmp", "", "internal: the child's scratch directory")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *child != "" {
		return childMain(*child, *inFile, passConfig{Pass: *pass, Traced: *traced, TmpDir: *tmpDir})
	}

	cfg := suiteConfig{Seed: *seed, Passes: max(3, *seconds/4), Traced: *trace != "0", OutDir: *outDir}
	if *trace == "1" {
		cfg.Passes = 2 // enough for the overhead ratio and the pass spread
	}
	cfg.Workloads = workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		cfg.Workloads = []*workload{w}
	}

	if *repeat > 1 {
		return repeatMain(cfg, *repeat)
	}
	rep, err := runSuite(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := rep.write(cfg.OutDir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *workloadName == "" {
		rep.print(os.Stdout)
	} else {
		// The driver's contract: the last line of standard output is one
		// JSON object; with -trace 0 the metrics are the end-to-end set,
		// with -trace 1 the per-layer set.
		wr := rep.Workloads[0]
		set, defs := wr.EndToEnd, endToEnd
		if *trace == "1" {
			set, defs = wr.PerLayer, perLayer
		}
		line := resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]valueUnit{}}
		for _, m := range defs {
			line.Metrics[m.Name] = valueUnit{set[m.Name], m.Unit}
		}
		out, _ := json.Marshal(line) // cannot fail: finite numbers and strings
		fmt.Println(string(out))
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// workloadReport is one workload's aggregated result.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Samples   int                `json:"samples"` // M: per-op minima the percentiles are taken over
	Passes    int                `json:"passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Notes     []string           `json:"notes,omitempty"`
	PassMs    []float64          `json:"pass_total_ms"` // Σ op times per pass, in pass order
	PassRSS   []float64          `json:"pass_rss_mb"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`

	spans      []span
	passSpread float64 // second-best / best pass total: the host-noise canary
}

type hostInfo struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

type suiteReport struct {
	Seed      int64             `json:"seed"`
	Host      hostInfo          `json:"host"`
	Warnings  []string          `json:"warnings,omitempty"`
	Workloads []*workloadReport `json:"workloads"`
}

func (rep *suiteReport) correct() bool {
	for _, w := range rep.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// write stores results.json and one trace file per traced workload.
func (rep *suiteReport) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, w := range rep.Workloads {
		if w.spans == nil {
			continue
		}
		if err := writeTrace(filepath.Join(dir, "trace-"+w.Name+".jsonl"), w.spans); err != nil {
			return err
		}
	}
	return nil
}

// print lists every metric by name with its unit, workload by workload.
func (rep *suiteReport) print(out *os.File) {
	fmt.Fprintf(out, "geographer bench: seed %d, %d cpus (%s), %s\n", rep.Seed, rep.Host.NProc, rep.Host.CPU, rep.Host.Go)
	for _, w := range rep.Workloads {
		fmt.Fprintf(out, "\n%s  (%d ops, min over %d passes; failed %d of %d)\n", w.Name, w.Samples, w.Passes, w.Failed, w.Attempted)
		for _, m := range endToEnd {
			if v, ok := w.EndToEnd[m.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
		for _, m := range perLayer {
			if v, ok := w.PerLayer[m.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
		for _, n := range w.Notes {
			fmt.Fprintf(out, "  FAILED: %s\n", n)
		}
	}
	for _, wn := range rep.Warnings {
		fmt.Fprintf(out, "warning: %s\n", wn)
	}
}

// repeatMain runs the suite several times and prints, as markdown, every
// workload × end-to-end metric with its values, the largest ratio between
// two runs and the bound; any ratio beyond its bound is a breach.
func repeatMain(cfg suiteConfig, times int) int {
	cfg.Traced = false
	var reps []*suiteReport
	for i := 0; i < times; i++ {
		rep, err := runSuite(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d: %v\n", i+1, err)
			return 1
		}
		if !rep.correct() {
			rep.print(os.Stderr)
			return 1
		}
		reps = append(reps, rep)
	}
	h := reps[0].Host
	fmt.Printf("# Repeatability: %d runs of the same code\n\n", times)
	fmt.Printf("`go run ./bench -repeat %d -seed %d` on %d cpus (%s), %s, K = %d passes per run.\n\n", times, cfg.Seed, h.NProc, h.CPU, h.Go, cfg.Passes)
	fmt.Printf("| workload | metric | unit | values | max ratio | bound | |\n|---|---|---|---|---|---|---|\n")
	breaches := 0
	for wi, w := range reps[0].Workloads {
		for _, m := range endToEnd {
			var vals []string
			lo, hi := w.EndToEnd[m.Name], w.EndToEnd[m.Name]
			for _, rep := range reps {
				v := rep.Workloads[wi].EndToEnd[m.Name]
				vals = append(vals, fmt.Sprintf("%.6g", v))
				lo, hi = min(lo, v), max(hi, v)
			}
			ratio, verdict := hi/lo, "ok"
			if ratio-1 > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %s | %s | %.4f | %.2f | %s |\n", w.Name, m.Name, m.Unit, strings.Join(vals, ", "), ratio, 1+m.Bound, verdict)
		}
	}
	var warnings []string
	for _, rep := range reps {
		warnings = append(warnings, rep.Warnings...)
	}
	sort.Strings(warnings)
	fmt.Println()
	for _, wn := range warnings {
		fmt.Printf("- warning: %s\n", wn)
	}
	fmt.Printf("\n%d breaches.\n", breaches)
	if breaches > 0 {
		return 1
	}
	return 0
}
