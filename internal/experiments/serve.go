package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"geographer/internal/mesh"
	"geographer/internal/sched"
	"geographer/internal/serve"
)

// Serving-experiment shape: serveTenants concurrent synthetic tenants,
// each a warm repartitioning chain of serveSteps steps, multiplexed
// through one serve.Registry whose worker pool is deliberately smaller
// than the tenants' aggregate demand (servePool workers shared across
// serveTenants × serveBudget leased). Every tenant is force-parked to
// checkpoint bytes once mid-chain — with a weight update already
// pending, the hard case — and restored on its next verb.
const (
	serveTenants = 8
	serveSteps   = 3
	servePool    = 4 // shared pool capacity
	serveBudget  = 2 // per-tenant leased worker budget
	serveK       = 8
	serveP       = 2 // simulated ranks per tenant
	// serveEvictStep is the chain step before whose repartition each
	// tenant is force-parked (after its weight update, so the pending
	// delta must survive the checkpoint round-trip).
	serveEvictStep = 2
)

// ServeRow is one tenant's chain summary: whether every step of its
// partition sequence came back bit-identical to the tenant's solo
// reference chain (same mesh, same weights, a private session with no
// registry, no pool contention, no eviction), and the deterministic
// work counter to pin the incremental fast path.
type ServeRow struct {
	Tenant string
	Graph  string
	N      int
	K, P   int

	// Identical: all chain steps (cold + warm) bit-identical to solo.
	Identical bool
	// DistCalcs sums the warm steps' distance evaluations; solo must
	// match exactly — eviction/restore may not knock a tenant off the
	// incremental path.
	DistCalcs     int64
	SoloDistCalcs int64

	Verbs   int
	WallSec float64
}

// ServeCell is the registry-wide summary of one serving run. The fields
// serveReport lists as strict are exact functions of the workload;
// throughput and latency are machine- and scheduling-dependent.
type ServeCell struct {
	Tenants int `json:"tenants"`
	N       int `json:"n"`
	K       int `json:"k"`
	P       int `json:"p"`
	Steps   int `json:"steps"`
	Pool    int `json:"pool"`
	Budget  int `json:"budget"`

	// IdenticalChains is the acceptance criterion: tenants whose whole
	// chain was bit-identical to their solo reference. Must equal
	// Tenants on a healthy run.
	IdenticalChains int `json:"identical_chains"`
	// Evictions/Restores count the forced mid-chain park/restore round
	// trips; one of each per tenant.
	Evictions int64 `json:"evictions"`
	Restores  int64 `json:"restores"`
	DistCalcs int64 `json:"dist_calcs"`

	Verbs       int     `json:"verbs"`
	WallSec     float64 `json:"wall_sec"`
	VerbsPerSec float64 `json:"verbs_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// serveReport is the BENCH_serve.json header (see Report).
var serveReport = Report[ServeCell]{
	Schema: "geographer-serve/v1",
	Key:    []string{"tenants", "n", "k", "p", "steps", "pool", "budget"},
	Strict: []string{"identical_chains", "evictions", "restores", "dist_calcs", "verbs"},
}

// check is the headline invariant of a finished cell: shared scheduling
// and forced eviction cost only time, never output.
func (c ServeCell) check() error {
	if c.IdenticalChains != c.Tenants {
		return fmt.Errorf("%d of %d tenant chains diverged from their solo references",
			c.Tenants-c.IdenticalChains, c.Tenants)
	}
	if c.Restores != c.Evictions || c.Evictions == 0 {
		return fmt.Errorf("evictions=%d restores=%d: every forced park must restore", c.Evictions, c.Restores)
	}
	return nil
}

// tenantRef is one serving tenant's workload and its solo reference
// chain: the same chain on a private session — no registry, no shared
// pool, no eviction — that every registry-side step must reproduce.
type tenantRef struct {
	m         *mesh.Mesh
	kind      string
	chain     [][]int32 // [0] cold partition, [t] after warm step t
	distCalcs int64     // summed over the warm steps
}

// tenantRefs builds the references of tenants 0..count-1: ids alternate
// between the two dynamic workload families, each on its own generator
// seed so no two tenants share geometry, and tenant id's load at step t
// is perturbedWeights(m, 7·id+t).
func tenantRefs(count, n int) ([]tenantRef, error) {
	refs := make([]tenantRef, count)
	for id := range refs {
		kind := [2]string{"climate", "refined"}[id%2]
		m, err := mesh.Generate(kind, n, int64(42+id))
		if err != nil {
			return nil, err
		}
		ch, err := runChain(atStep(m, 7*id), serveK, serveP, seededConfig(), nil, serveSteps, func(t int) []float64 {
			return perturbedWeights(m, 7*id+t)
		})
		if err != nil {
			return nil, fmt.Errorf("solo reference %d: %w", id, err)
		}
		refs[id] = tenantRef{m: m, kind: kind, chain: ch.Assign, distCalcs: ch.warmDistCalcs()}
	}
	return refs, nil
}

// quantile returns the nearest-rank q-quantile of sorted, in
// milliseconds: the smallest value with at least a q share of the
// values at or below it, sorted[⌈q·n⌉−1].
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
	return sorted[i].Seconds() * 1e3
}

// Serve runs the partitioning-as-a-service load experiment (DESIGN.md,
// "Multi-tenancy invariants"): serveTenants concurrent tenants drive
// warm repartitioning chains through one registry under a worker pool
// half their aggregate leased demand, each tenant is force-parked to
// checkpoint bytes once mid-chain (with a pending weight delta) and
// restored on next touch, and every step of every chain is compared
// bit-for-bit against that tenant's solo session. Shared scheduling
// must cost only time — never output: IdenticalChains == Tenants and
// per-tenant DistCalcs equal to solo are the invariants under test;
// throughput and latency quantiles are the price of sharing. A finished
// run that breaks them returns its rows and report together with the
// invariant error (see Report).
func Serve(w io.Writer, sc Scale) ([]ServeRow, Report[ServeCell], error) {
	rep := serveReport
	n := sc.Table2N
	fmt.Fprintf(w, "Multi-tenant serving: %d tenants (n=%d k=%d p=%d each, %d warm steps), pool=%d workers, per-tenant budget=%d, forced evict+restore at step %d\n",
		serveTenants, n, serveK, serveP, serveSteps, servePool, serveBudget, serveEvictStep)

	// Solo references, computed serially up front so the concurrent
	// phase measures only registry traffic.
	refs, err := tenantRefs(serveTenants, n)
	if err != nil {
		return nil, rep, err
	}

	g := serve.NewRegistry(serve.Config{Pool: sched.NewPool(servePool)})
	defer g.Drain()

	rows := make([]ServeRow, serveTenants)
	lats := make([][]time.Duration, serveTenants)
	errs := make([]error, serveTenants)
	var wg sync.WaitGroup
	t0 := time.Now()
	for id := 0; id < serveTenants; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ref := refs[id]
			name := fmt.Sprintf("tenant-%d", id)
			row := ServeRow{
				Tenant: name, Graph: ref.kind, N: ref.m.N(), K: serveK, P: serveP,
				Identical: true, SoloDistCalcs: ref.distCalcs,
			}
			start := time.Now()
			verb := func(op string, f func() error) bool {
				v0 := time.Now()
				err := f()
				lats[id] = append(lats[id], time.Since(v0))
				row.Verbs++
				if err != nil {
					errs[id] = fmt.Errorf("tenant %d %s: %w", id, op, err)
				}
				return err == nil
			}

			if !verb("create", func() error {
				return g.Create(nil, name, atStep(ref.m, 7*id), serve.TenantOptions{K: serveK, Processes: serveP, Workers: serveBudget})
			}) {
				return
			}
			ok := verb("partition", func() error {
				p, _, err := g.Partition(nil, name)
				if err == nil && !sameAssign(p.Assign, ref.chain[0]) {
					row.Identical = false
				}
				return err
			})
			for t := 1; ok && t <= serveSteps; t++ {
				wt := perturbedWeights(ref.m, 7*id+t)
				if ok = verb("weights", func() error { return g.UpdateWeights(name, wt) }); !ok {
					break
				}
				if t == serveEvictStep {
					// Park with the weight delta pending: the checkpoint must
					// carry it and the restored step must still be incremental.
					if ok = verb("evict", func() error { return g.Evict(name) }); !ok {
						break
					}
				}
				ok = verb("repartition", func() error {
					p, st, acted, err := g.RepartitionIfAbove(nil, name, 0)
					if err != nil {
						return err
					}
					if !acted {
						return fmt.Errorf("step %d did not act", t)
					}
					if !sameAssign(p.Assign, ref.chain[t]) {
						row.Identical = false
					}
					row.DistCalcs += st.Info.DistCalcs
					return nil
				})
			}
			row.WallSec = time.Since(start).Seconds()
			rows[id] = row
		}(id)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, rep, err
		}
	}
	st := g.Stats()

	cell := ServeCell{
		Tenants: serveTenants, N: n, K: serveK, P: serveP, Steps: serveSteps,
		Pool: servePool, Budget: serveBudget,
		Evictions: st.Evictions, Restores: st.Restores,
		WallSec: wall,
	}
	var all []time.Duration
	fmt.Fprintf(w, "%-10s %-8s %8s %6s %12s %12s %8s %6s\n",
		"tenant", "graph", "n", "verbs", "dist_calcs", "solo_dc", "wall[s]", "ident")
	for _, row := range rows {
		cell.Verbs += row.Verbs
		cell.DistCalcs += row.DistCalcs
		id := "yes"
		if row.Identical && row.DistCalcs == row.SoloDistCalcs {
			cell.IdenticalChains++
		} else {
			id = "NO"
		}
		fmt.Fprintf(w, "%-10s %-8s %8d %6d %12d %12d %8.4f %6s\n",
			row.Tenant, row.Graph, row.N, row.Verbs, row.DistCalcs, row.SoloDistCalcs, row.WallSec, id)
	}
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if wall > 0 {
		cell.VerbsPerSec = float64(cell.Verbs) / wall
	}
	cell.P50Ms = quantile(all, 0.50)
	cell.P95Ms = quantile(all, 0.95)
	cell.P99Ms = quantile(all, 0.99)
	rep.Cells = append(rep.Cells, cell)

	fmt.Fprintf(w, "summary: %d/%d chains bit-identical to solo; %d evictions, %d restores; %d verbs in %.3fs (%.1f/s), latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
		cell.IdenticalChains, cell.Tenants, cell.Evictions, cell.Restores,
		cell.Verbs, cell.WallSec, cell.VerbsPerSec, cell.P50Ms, cell.P95Ms, cell.P99Ms)
	return rows, rep, cell.check()
}
