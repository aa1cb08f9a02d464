package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mesh"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/repart"
	"geographer/internal/sched"
)

// tenantMesh builds a distinct small workload per tenant id.
func tenantMesh(t *testing.T, n int, id int64) *mesh.Mesh {
	t.Helper()
	m, err := mesh.GenRefinedTri(n, 40+id)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// phaseWeights is the stream experiments' spatially correlated load wave
// at phase step.
func phaseWeights(m *mesh.Mesh, step int) []float64 {
	ps := m.Points
	out := make([]float64, ps.Len())
	for i := range out {
		x := ps.Coords[i*ps.Dim]
		y := ps.Coords[i*ps.Dim+1]
		out[i] = ps.W(i) * (1 + 0.4*math.Sin(0.08*x+0.05*y+0.9*float64(step)))
	}
	return out
}

// mixtureTenant builds a d-dimensional Gaussian-mixture tenant — the
// feature-space workload (d > geom.MaxDim) served through the same
// registry verbs as the spatial mesh tenants.
func mixtureTenant(n, dim, m int, seed int64) *geom.PointSet {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]float64, m*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 10
	}
	ps := &geom.PointSet{Dim: dim, Coords: make([]float64, n*dim)}
	for i := 0; i < n; i++ {
		c := centers[(i%m)*dim : (i%m+1)*dim]
		for d := 0; d < dim; d++ {
			ps.Coords[i*dim+d] = c[d] + rng.NormFloat64()
		}
	}
	return ps
}

// featureWeights is the load wave of the feature-space tenants.
func featureWeights(ps *geom.PointSet, step int) []float64 {
	out := make([]float64, ps.Len())
	for i := range out {
		x := ps.Coords[i*ps.Dim]
		y := ps.Coords[i*ps.Dim+ps.Dim-1]
		out[i] = 1 + 0.4*math.Sin(0.3*x+0.2*y+0.9*float64(step))
	}
	return out
}

// soloChain runs the reference chain outside the registry: cold
// partition, then steps warm repartitions under the phase weights.
// Returns each step's assignment (index 0 = cold) and the per-step
// stats (index 0 zero-valued).
func soloChain(t *testing.T, m *mesh.Mesh, k, p, steps int) ([][]int32, []repart.Stats) {
	t.Helper()
	return soloChainPts(t, m.Points, func(step int) []float64 { return phaseWeights(m, step) }, k, p, steps)
}

// soloChainPts is soloChain over a bare point set with an arbitrary
// per-step weight wave (any dimension).
func soloChainPts(t *testing.T, base *geom.PointSet, weightsAt func(int) []float64, k, p, steps int) ([][]int32, []repart.Stats) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	ps := &geom.PointSet{Dim: base.Dim, Coords: base.Coords, Weight: weightsAt(0)}
	s, err := repart.NewSession(mpi.NewWorld(p), ps.Clone(), k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chain := make([][]int32, 0, steps+1)
	stats := make([]repart.Stats, 1, steps+1)
	p0, err := s.Partition()
	if err != nil {
		t.Fatal(err)
	}
	chain = append(chain, append([]int32(nil), p0.Assign...))
	for step := 1; step <= steps; step++ {
		if err := s.UpdateWeights(weightsAt(step)); err != nil {
			t.Fatal(err)
		}
		pt, st, _, err := s.RepartitionIfAbove(0)
		if err != nil {
			t.Fatalf("solo step %d: %v", step, err)
		}
		chain = append(chain, append([]int32(nil), pt.Assign...))
		stats = append(stats, st)
	}
	return chain, stats
}

func assertSameAssign(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assignments, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: assignment differs at point %d (%d vs %d)", label, i, got[i], want[i])
		}
	}
}

// TestRegistryChainMatchesSolo: a tenant's chain through the registry —
// under a constrained worker budget — is bit-identical to the plain
// session chain, and the worker budget (1 vs full) changes nothing.
func TestRegistryChainMatchesSolo(t *testing.T) {
	const n, k, p, steps = 1500, 8, 2, 3
	m := tenantMesh(t, n, 0)
	ref, refStats := soloChain(t, m, k, p, steps)

	for _, workers := range []int{0, 1, 3} {
		g := NewRegistry(Config{})
		ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
		if err := g.Create(nil, "sim", ps, TenantOptions{K: k, Processes: p, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		p0, _, err := g.Partition(nil, "sim")
		if err != nil {
			t.Fatal(err)
		}
		assertSameAssign(t, fmt.Sprintf("workers=%d cold", workers), p0.Assign, ref[0])
		for step := 1; step <= steps; step++ {
			if err := g.UpdateWeights("sim", phaseWeights(m, step)); err != nil {
				t.Fatal(err)
			}
			pt, st, acted, err := g.RepartitionIfAbove(nil, "sim", 0)
			if err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, step, err)
			}
			if !acted {
				t.Fatalf("workers=%d step %d: did not act", workers, step)
			}
			assertSameAssign(t, fmt.Sprintf("workers=%d step %d", workers, step), pt.Assign, ref[step])
			if st.Info.DistCalcs != refStats[step].Info.DistCalcs {
				t.Fatalf("workers=%d step %d: %d distance calcs, solo %d",
					workers, step, st.Info.DistCalcs, refStats[step].Info.DistCalcs)
			}
		}
		g.Drain()
	}
}

// TestRegistryCancelledVerbKeepsTenant: a verb whose request context is
// cancelled — before it runs, or while it runs — loses nothing. A cancel
// before the run returns the context's cause and breaks no world; one
// that lands mid-run returns the abort (ErrBroken wrapping the cause);
// a late one lets the verb complete. Either way the tenant stays
// resident and not lost, and its chain from there on is bit-identical
// to the uncancelled one.
func TestRegistryCancelledVerbKeepsTenant(t *testing.T) {
	const n, k, p, steps = 800, 8, 2, 3
	m := tenantMesh(t, n, 0)
	ref, _ := soloChain(t, m, k, p, steps)

	// chain drives one tenant through the reference chain with step 1's
	// warm verb under the context arm returns, armed right before the
	// verb runs; a failed verb is issued again uncancelled. It reports
	// the failed verb's error (nil if the verb completed) and how long
	// the step-1 verb call took.
	chain := func(t *testing.T, g *Registry, name string, arm func() context.Context) (cancelErr error, took time.Duration) {
		t.Helper()
		ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
		if err := g.Create(nil, name, ps, TenantOptions{K: k, Processes: p}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Partition(nil, name); err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= steps; step++ {
			if err := g.UpdateWeights(name, phaseWeights(m, step)); err != nil {
				t.Fatal(err)
			}
			ctx := context.Context(nil)
			if step == 1 {
				ctx = arm()
			}
			start := time.Now()
			pt, _, acted, err := g.RepartitionIfAbove(ctx, name, 0)
			if step == 1 {
				took = time.Since(start)
			}
			if err != nil && step == 1 {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancelled verb: %v, want a context.Canceled", name, err)
				}
				cancelErr = err
				if ti, err := g.Info(name); err != nil || ti.Lost || !ti.Resident {
					t.Fatalf("%s: after the cancelled verb: %+v, %v", name, ti, err)
				}
				if _, err := g.Imbalance(name); err != nil {
					t.Fatalf("%s: Imbalance after the cancelled verb: %v", name, err)
				}
				pt, _, acted, err = g.RepartitionIfAbove(nil, name, 0)
			}
			if err != nil || !acted {
				t.Fatalf("%s step %d: acted=%v err=%v", name, step, acted, err)
			}
			assertSameAssign(t, fmt.Sprintf("%s step %d", name, step), pt.Assign, ref[step])
		}
		if ti, err := g.Info(name); err != nil || ti.Lost || !ti.Resident {
			t.Fatalf("%s: after the chain: %+v, %v", name, ti, err)
		}
		return cancelErr, took
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		g := NewRegistry(Config{})
		defer g.Drain()
		err, _ := chain(t, g, "sim", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		})
		if err == nil || errors.Is(err, mpi.ErrBroken) {
			t.Fatalf("verb under a cancelled context: %v, want context.Canceled and no ErrBroken", err)
		}
		if st := g.Stats(); st.Lost != 0 || st.Resident != 1 {
			t.Fatalf("registry after the cancelled verb: %+v", st)
		}
	})

	// The cancel fires from a timer at staggered fractions of an
	// uncancelled verb's time, so it lands before, during or after the
	// run; the outcome is the same. At least one delay must land
	// mid-run (an ErrBroken), or the arm checked nothing.
	t.Run("mid-run", func(t *testing.T) {
		g := NewRegistry(Config{})
		defer g.Drain()
		_, took := chain(t, g, "uncancelled", context.Background)
		const delays = 16
		broken := 0
		for i := 0; i < delays; i++ {
			var timer *time.Timer
			err, _ := chain(t, g, fmt.Sprintf("sim%d", i), func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				timer = time.AfterFunc(took*time.Duration(i)/(delays/2), cancel)
				return ctx
			})
			timer.Stop()
			if errors.Is(err, mpi.ErrBroken) {
				broken++
			}
		}
		if st := g.Stats(); st.Lost != 0 || st.Resident != delays+1 {
			t.Fatalf("registry after the cancels: %+v", st)
		}
		if broken == 0 {
			t.Fatalf("no cancel of %d, staggered over 0..2×%v, landed mid-run", delays, took)
		}
		t.Logf("%d of %d cancels aborted the run (uncancelled verb: %v)", broken, delays, took)
	})
}

// TestEvictionRoundTrip force-evicts mid-chain — with carried
// incremental bounds resident and a weight delta pending — restores on
// the next touch, and pins the next warm step bit-identical to the
// never-evicted chain, still on the incremental fast path. Runs once on
// a spatial mesh tenant (d=2) and once on a feature-space tenant (d=8,
// through the generic kernels and the dimension-strided checkpoint
// codec).
func TestEvictionRoundTrip(t *testing.T) {
	t.Run("mesh-d2", func(t *testing.T) {
		m := tenantMesh(t, 1500, 1)
		runEvictionRoundTrip(t, m.Points, func(step int) []float64 { return phaseWeights(m, step) }, 8, 2, 3)
	})
	t.Run("feature-d8", func(t *testing.T) {
		ps := mixtureTenant(1200, 8, 6, 11)
		runEvictionRoundTrip(t, ps, func(step int) []float64 { return featureWeights(ps, step) }, 6, 2, 3)
	})
}

func runEvictionRoundTrip(t *testing.T, base *geom.PointSet, weightsAt func(int) []float64, k, p, steps int) {
	ref, refStats := soloChainPts(t, base, weightsAt, k, p, steps)
	if !refStats[steps].Info.CarriedBounds {
		t.Fatalf("reference chain's final step did not carry bounds; test needs the incremental path")
	}

	g := NewRegistry(Config{})
	ps := &geom.PointSet{Dim: base.Dim, Coords: base.Coords, Weight: weightsAt(0)}
	if err := g.Create(nil, "sim", ps, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Partition(nil, "sim"); err != nil {
		t.Fatal(err)
	}
	// Two warm steps so the carried Hamerly bounds are resident.
	for step := 1; step < steps; step++ {
		if err := g.UpdateWeights("sim", weightsAt(step)); err != nil {
			t.Fatal(err)
		}
		if _, st, _, err := g.RepartitionIfAbove(nil, "sim", 0); err != nil {
			t.Fatal(err)
		} else if step > 1 && !st.Info.CarriedBounds {
			t.Fatalf("step %d not incremental before eviction", step)
		}
	}

	// Queue a weight delta, then park the tenant: the pending flag and
	// the carried bounds must travel through the checkpoint.
	if err := g.UpdateWeights("sim", weightsAt(steps)); err != nil {
		t.Fatal(err)
	}
	if err := g.Evict("sim"); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Parked != 1 || st.Evictions != 1 || st.Resident != 0 {
		t.Fatalf("after evict: %+v", st)
	}
	if err := g.Evict("sim"); err != nil { // idempotent
		t.Fatal(err)
	}

	// Next touch restores and must reproduce the never-evicted step —
	// same bits, same distance-evaluation count, still incremental.
	pt, st, acted, err := g.RepartitionIfAbove(nil, "sim", 0)
	if err != nil || !acted {
		t.Fatalf("post-restore step: acted=%v err=%v", acted, err)
	}
	assertSameAssign(t, "post-restore step", pt.Assign, ref[steps])
	if !st.Info.CarriedBounds {
		t.Fatal("post-restore step fell off the incremental fast path")
	}
	if st.Info.DistCalcs != refStats[steps].Info.DistCalcs {
		t.Fatalf("post-restore step: %d distance calcs, never-evicted chain %d", st.Info.DistCalcs, refStats[steps].Info.DistCalcs)
	}
	if rs := g.Stats(); rs.Restores != 1 || rs.Resident != 1 {
		t.Fatalf("after restore: %+v", rs)
	}
}

// retryAdmission retries fn while it reports ErrAdmission — the
// registry's "try again later" signal, raised when every resident
// tenant is mid-verb and none can be evicted right now. Real clients
// see it as HTTP 429.
func retryAdmission(t *testing.T, label string, fn func() error) error {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := fn()
		if !errors.Is(err, ErrAdmission) {
			return err
		}
		if attempt > 100000 {
			return fmt.Errorf("%s: still rejected after %d attempts: %w", label, attempt, err)
		}
		runtime.Gosched()
	}
}

// TestRegistryRace drives 8 tenants concurrently through
// Create/Partition/UpdateWeights/RepartitionIfAbove/Checkpoint/Delete
// while a chaos goroutine force-evicts, sweeps, and lists — under a
// resident budget that holds only about half the tenants, so
// admission-pressure eviction and restore-on-touch fire constantly.
// Every tenant's chain must stay bit-identical to its solo reference.
func TestRegistryRace(t *testing.T) {
	const tenants, n, k, p, steps = 8, 900, 6, 2, 3

	meshes := make([]*mesh.Mesh, tenants)
	refs := make([][][]int32, tenants)
	for id := range meshes {
		meshes[id] = tenantMesh(t, n, int64(id))
		refs[id], _ = soloChain(t, meshes[id], k, p, steps)
	}

	budget := 4 * residentBytesEstimate(n, 2, k, p)
	g := NewRegistry(Config{
		Pool:             sched.NewPool(4),
		MaxResidentBytes: budget,
	})

	done := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		i := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = g.Evict(fmt.Sprintf("tenant-%d", i%tenants))
			g.Sweep(50)
			g.List()
			g.Stats()
			i++
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for id := 0; id < tenants; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", id)
			m := meshes[id]
			ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
			if err := retryAdmission(t, name, func() error {
				return g.Create(nil, name, ps, TenantOptions{K: k, Processes: p, Workers: 2})
			}); err != nil {
				errs <- fmt.Errorf("%s create: %w", name, err)
				return
			}
			var p0 partition.P
			if err := retryAdmission(t, name, func() error {
				var err error
				p0, _, err = g.Partition(nil, name)
				return err
			}); err != nil {
				errs <- fmt.Errorf("%s cold: %w", name, err)
				return
			}
			for i := range p0.Assign {
				if p0.Assign[i] != refs[id][0][i] {
					errs <- fmt.Errorf("%s cold: differs at %d", name, i)
					return
				}
			}
			for step := 1; step <= steps; step++ {
				if err := retryAdmission(t, name, func() error {
					return g.UpdateWeights(name, phaseWeights(m, step))
				}); err != nil {
					errs <- fmt.Errorf("%s step %d weights: %w", name, step, err)
					return
				}
				var pt partition.P
				var acted bool
				if err := retryAdmission(t, name, func() error {
					var err error
					pt, _, acted, err = g.RepartitionIfAbove(nil, name, 0)
					return err
				}); err != nil || !acted {
					errs <- fmt.Errorf("%s step %d: acted=%v err=%w", name, step, acted, err)
					return
				}
				for i := range pt.Assign {
					if pt.Assign[i] != refs[id][step][i] {
						errs <- fmt.Errorf("%s step %d: differs at %d", name, step, i)
						return
					}
				}
			}
			if err := retryAdmission(t, name, func() error {
				_, err := g.Checkpoint(name)
				return err
			}); err != nil {
				errs <- fmt.Errorf("%s checkpoint: %w", name, err)
				return
			}
			if err := g.Delete(name); err != nil {
				errs <- fmt.Errorf("%s delete: %w", name, err)
			}
		}(id)
	}
	wg.Wait()
	close(done)
	chaos.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := g.Stats(); st.Tenants != 0 {
		t.Fatalf("tenants left after deletes: %+v", st)
	}
}

// TestResidentBytesEstimateExact: every shape config admits has an
// estimate equal to its exact value — no int64 wrap, even at the
// largest n a maxBodyBytes body can carry with k = processes = n —
// and the shape whose tables term wraps to 0 is rejected.
func TestResidentBytesEstimateExact(t *testing.T) {
	for _, c := range []struct {
		name         string
		n, dim, k, p int
		wantRejected bool
	}{
		{"small", 900, 2, 6, 2, false},
		{"largest-body", maxBodyBytes / 2, 1, maxBodyBytes / 2, maxBodyBytes / 2, false},
		{"wrapping", 4, 2, 1 << 29, 1 << 30, true},
	} {
		_, p, err := TenantOptions{K: c.k, Processes: c.p}.config(c.n)
		if c.wantRejected {
			if err == nil {
				t.Errorf("%s: shape admitted; estimate %d", c.name, residentBytesEstimate(c.n, c.dim, c.k, c.p))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n, dim := big.NewInt(int64(c.n)), int64(c.dim)
		want := new(big.Int).Mul(n, big.NewInt(dim*8+8+4))
		want.Add(want, new(big.Int).Mul(n, big.NewInt(dim*8+8+8+4+3*8)))
		tables := new(big.Int).Mul(big.NewInt(int64(p)), big.NewInt(int64(c.k)))
		want.Add(want, tables.Mul(tables, big.NewInt((dim+1)*32+64)))
		if got := residentBytesEstimate(c.n, c.dim, c.k, p); !want.IsInt64() || got != want.Int64() {
			t.Errorf("%s: estimate %d, exact %s", c.name, got, want)
		}
	}
}

// TestAdmissionControl: a budget holding one tenant evicts LRU on the
// second Create; touching the parked tenant restores it (evicting the
// other); a budget too small for anyone rejects with ErrAdmission, as
// does the tenant-count cap.
func TestAdmissionControl(t *testing.T) {
	const n, k, p = 900, 6, 2
	mA, mB := tenantMesh(t, n, 2), tenantMesh(t, n, 3)
	one := residentBytesEstimate(mA.Points.Len(), 2, k, p)

	g := NewRegistry(Config{MaxResidentBytes: one + one/2})
	psA := &geom.PointSet{Dim: mA.Points.Dim, Coords: mA.Points.Coords, Weight: phaseWeights(mA, 0)}
	psB := &geom.PointSet{Dim: mB.Points.Dim, Coords: mB.Points.Coords, Weight: phaseWeights(mB, 0)}
	if err := g.Create(nil, "a", psA, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Partition(nil, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Create(nil, "b", psB, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatalf("second create should evict, got %v", err)
	}
	st := g.Stats()
	if st.Evictions != 1 || st.Resident != 1 || st.Parked != 1 {
		t.Fatalf("after pressure create: %+v", st)
	}

	// Touching a restores it (and must not lose its partition).
	imb, err := g.Imbalance("a")
	if err != nil {
		t.Fatalf("imbalance of restored tenant: %v", err)
	}
	if math.IsNaN(imb) || imb < 0 {
		t.Fatalf("imbalance %g", imb)
	}
	if st := g.Stats(); st.Restores != 1 || st.Evictions != 2 {
		t.Fatalf("after restore-on-touch: %+v", st)
	}

	// A budget below a single tenant admits nobody.
	tiny := NewRegistry(Config{MaxResidentBytes: one / 2})
	if err := tiny.Create(nil, "x", psA, TenantOptions{K: k, Processes: p}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("tiny budget: %v", err)
	}
	if st := tiny.Stats(); st.Tenants != 0 || st.ResidentBytes != 0 {
		t.Fatalf("tiny registry leaked accounting: %+v", st)
	}

	// Tenant-count cap.
	capped := NewRegistry(Config{MaxTenants: 1})
	if err := capped.Create(nil, "a", psA, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if err := capped.Create(nil, "b", psB, TenantOptions{K: k, Processes: p}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("count cap: %v", err)
	}
}

// TestRegistryErrors pins the typed error surface.
func TestRegistryErrors(t *testing.T) {
	const n, k, p = 600, 4, 2
	m := tenantMesh(t, n, 4)
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}

	g := NewRegistry(Config{})
	if _, _, err := g.Partition(nil, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tenant: %v", err)
	}
	if err := g.Evict("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evict missing: %v", err)
	}
	if err := g.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	if err := g.Create(nil, "sim", ps, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if err := g.Create(nil, "sim", ps, TenantOptions{K: k, Processes: p}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := g.Create(nil, "", ps, TenantOptions{K: k, Processes: p}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := g.Create(nil, "bad", ps, TenantOptions{K: 0, Processes: p}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := g.Create(nil, "bad", ps, TenantOptions{K: k, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, _, _, err := g.RepartitionIfAbove(nil, "sim", 0); err == nil {
		t.Fatal("warm step without a partition accepted")
	}

	g.Drain()
	if _, _, err := g.Partition(nil, "sim"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain verb: %v", err)
	}
	if err := g.Create(nil, "late", ps, TenantOptions{K: k}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain create: %v", err)
	}
	g.Drain() // idempotent
	if st := g.Stats(); st.Tenants != 0 || st.ResidentBytes != 0 || !st.Draining {
		t.Fatalf("post-drain stats: %+v", st)
	}
}

// TestCancelledVerbKeepsTenant: a verb whose request context is already
// cancelled fails with the cancellation alone — no world breaks, so the
// resident, never-spilled tenant is neither re-parked nor lost — and the
// tenant's next verbs read exactly what a twin that never saw the
// cancelled call reads.
func TestCancelledVerbKeepsTenant(t *testing.T) {
	const n, k, p = 600, 4, 2
	m := tenantMesh(t, n, 5)
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
	g := NewRegistry(Config{})
	defer g.Drain()
	for _, name := range []string{"cut", "twin"} {
		if err := g.Create(nil, name, ps, TenantOptions{K: k, Processes: p}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Partition(nil, name); err != nil {
			t.Fatal(err)
		}
		if err := g.UpdateWeights(name, phaseWeights(m, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := g.RepartitionIfAbove(ctx, "cut", 0); !errors.Is(err, context.Canceled) || errors.Is(err, mpi.ErrBroken) {
		t.Fatalf("cancelled verb: %v, want context.Canceled and no ErrBroken", err)
	}
	var imb [2]float64
	var blocks [2][]int32
	for j, name := range []string{"cut", "twin"} {
		var err error
		if imb[j], err = g.Imbalance(name); err != nil {
			t.Fatalf("%s: Imbalance after the cancelled verb: %v", name, err)
		}
		pt, _, err := g.Partition(nil, name)
		if err != nil {
			t.Fatalf("%s: Partition after the cancelled verb: %v", name, err)
		}
		blocks[j] = pt.Assign
	}
	if math.Float64bits(imb[0]) != math.Float64bits(imb[1]) {
		t.Fatalf("imbalance %v after the cancelled verb, twin %v", imb[0], imb[1])
	}
	assertSameAssign(t, "partition after the cancelled verb", blocks[0], blocks[1])
}

// TestSweepParksIdleTenants: a tenant untouched for maxIdle verbs is
// parked by Sweep; an active one stays resident.
func TestSweepParksIdleTenants(t *testing.T) {
	const n, k, p = 600, 4, 2
	m := tenantMesh(t, n, 5)
	ps := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
	g := NewRegistry(Config{})
	if err := g.Create(nil, "idle", ps, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if err := g.Create(nil, "busy", ps, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Partition(nil, "idle"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := g.Partition(nil, "busy"); err != nil {
			t.Fatal(err)
		}
	}
	if parked := g.Sweep(5); parked != 1 {
		t.Fatalf("sweep parked %d tenants, want 1 (the idle one)", parked)
	}
	infos := g.List()
	for _, ti := range infos {
		wantResident := ti.Name == "busy"
		if ti.Resident != wantResident {
			t.Fatalf("tenant %s resident=%v after sweep", ti.Name, ti.Resident)
		}
	}
}
