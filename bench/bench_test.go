package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSizes shrinks every workload to a few ops on a few thousand points.
var smokeSizes = map[string]size{
	"cold_mesh2d":     {N: 2000, M: 3, Warm: 1},
	"cold_feature16d": {N: 2000, M: 3, Warm: 1},
	"warm_stream3d":   {N: 2000, M: 3, Warm: 1},
	"serve_tenants":   {N: 2000, M: 8, Warm: 1, Bursts: 2, BurstLen: 2},
}

// crossed lists, per workload, layer metrics that must be non-zero there
// and ones that must be zero: the contrast the workloads were chosen for.
var crossed = map[string]struct{ nonzero, zero []string }{
	"cold_mesh2d":     {[]string{"sfc.keys_ns_per_point", "dsort.sort_ns_per_point", "core.ingest_ms", "mpi.alltoallcols_ns_per_point", "geom.assign_full_ns_per_pc"}, []string{"serve.http_overhead_ms", "repart.step_ms"}},
	"cold_feature16d": {[]string{"geom.assign_full_ns_per_pc", "core.kmeans_ms", "core.iterations"}, []string{"sfc.keys_ns_per_point", "dsort.sort_ns_per_point", "mpi.alltoallcols_ns_per_point"}},
	"warm_stream3d":   {[]string{"repart.step_ms", "repart.allocs_per_step", "repart.checkpoint_ms", "mpi.collectives_per_op", "mpi.collectives_per_step_p64", "core.boundary_frac"}, []string{"serve.registry_step_ms", "store.put_ms"}},
	"serve_tenants":   {[]string{"serve.registry_step_ms", "serve.http_assign_ms", "serve.json_decode_weights_ms", "serve.evict_ms", "serve.restores", "store.put_ms", "repart.restore_ms", "sched.foreach_us"}, []string{"mpi.collectives_per_op", "mpi.alltoallcols_ns_per_point"}},
}

func TestSmoke(t *testing.T) {
	manifest, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // the suite keeps its scratch under ./.bench_build

	rep, err := runSuite(suiteConfig{
		Workloads: workloads, Seed: 1, Passes: 2, Traced: true,
		Sizes: smokeSizes, InProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workload reports for %d workloads", len(rep.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: failed %d of %d: %v", w.Name, w.Failed, w.Attempted, w.Notes)
		}
		if w.Samples != smokeSizes[w.Name].M || w.Passes != 2 {
			t.Errorf("%s: %d samples over %d passes", w.Name, w.Samples, w.Passes)
		}
		if len(w.EndToEnd) != len(endToEnd) || len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.Name, len(w.EndToEnd), len(w.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd {
			if v, ok := w.EndToEnd[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v): must be positive", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range perLayer {
			// Finite; a difference such as serve.http_overhead_ms may dip
			// below zero at smoke size.
			if v, ok := w.PerLayer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, n := range crossed[w.Name].nonzero {
			if w.PerLayer[n] == 0 {
				t.Errorf("%s crosses %s but reported 0", w.Name, n)
			}
		}
		for _, n := range crossed[w.Name].zero {
			if w.PerLayer[n] != 0 {
				t.Errorf("%s does not cross %s but reported %v", w.Name, n, w.PerLayer[n])
			}
		}
		if len(w.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
	}

	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || m.Unit == "" || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad name, missing unit, or listed twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}

	// BENCHMARK.json names exactly the harness's workloads and metrics.
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(manifest, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) || len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the harness has %d, %d and %d",
			len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q (or the why differs)", i, bm.Workloads[i].Name, w.Name)
		}
	}
	for i, m := range endToEnd {
		if b := bm.EndToEnd[i]; b.Name != m.Name || b.Unit != m.Unit || b.Better != m.Better || b.Bound != m.Bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the harness has %+v", i, b, m)
		}
	}
	for i, m := range perLayer {
		if b := bm.PerLayer[i]; b.Name != m.Name || b.Unit != m.Unit || b.Better != m.Better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, the harness has %+v", i, b, m)
		}
	}
}
