package serve

// Durability tests: the registry over a disk store. Corruption of
// spilled checkpoints must degrade to a typed per-tenant ErrTenantLost
// (quarantine, never a crash, registry healthy), and a daemon restart —
// new registry over the same spill directory, Recover — must resume
// every parked chain bit-identically, distance-evaluation counts
// included.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"

	"geographer/internal/geom"
	"geographer/internal/store"
)

// diskRegistry returns a registry spilling to a fresh temp directory.
func diskRegistry(t *testing.T, cfg Config) (*Registry, *store.Disk) {
	t.Helper()
	disk, err := store.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = disk
	return NewRegistry(cfg), disk
}

// parkTenant creates a tenant, runs its cold partition, and evicts it —
// leaving one spill file on disk.
func parkTenant(t *testing.T, g *Registry, name string, base *geom.PointSet, k, p int) {
	t.Helper()
	if err := g.Create(nil, name, base, TenantOptions{K: k, Processes: p}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Partition(nil, name); err != nil {
		t.Fatal(err)
	}
	if err := g.Evict(name); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSpillQuarantine drives every injury mode through the
// restore path: a torn spill (truncated file), a bit-flipped file, a
// deleted file, and a spill whose storage frame verifies but whose
// checkpoint payload no longer decodes. Each must yield ErrTenantLost
// for that tenant only — sticky, quarantined where there are bytes to
// quarantine — while a healthy tenant in the same registry keeps
// serving, and Delete + re-Create gives the name a clean slate.
func TestCorruptSpillQuarantine(t *testing.T) {
	const k, p = 4, 2
	m := tenantMesh(t, 800, 3)
	base := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}

	injuries := []struct {
		name       string
		quarantine bool // leaves a quarantined file behind
		injure     func(t *testing.T, g *Registry, disk *store.Disk, name string)
	}{
		{"torn-write", true, func(t *testing.T, g *Registry, disk *store.Disk, name string) {
			path := disk.Path(name)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/3); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", true, func(t *testing.T, g *Registry, disk *store.Disk, name string) {
			path := disk.Path(name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted", false, func(t *testing.T, g *Registry, disk *store.Disk, name string) {
			if err := os.Remove(disk.Path(name)); err != nil {
				t.Fatal(err)
			}
		}},
		{"resealed-garbage", true, func(t *testing.T, g *Registry, disk *store.Disk, name string) {
			// Mutate the checkpoint payload (its magic word) and re-seal
			// it through the store, so the CRC passes and the failure
			// surfaces in the session decode — the deeper quarantine path.
			data, meta, err := disk.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0xFF
			if err := disk.Put(name, data, meta); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, inj := range injuries {
		t.Run(inj.name, func(t *testing.T) {
			g, disk := diskRegistry(t, Config{})
			parkTenant(t, g, "victim", base, k, p)
			parkTenant(t, g, "healthy", base, k, p)
			inj.injure(t, g, disk, "victim")

			// Touching the injured tenant is a typed loss, not a crash.
			if _, err := g.Blocks("victim"); !errors.Is(err, ErrTenantLost) {
				t.Fatalf("touch after %s: err = %v, want ErrTenantLost", inj.name, err)
			}
			// Sticky: every further verb answers the same.
			if _, _, _, err := g.RepartitionIfAbove(nil, "victim", 0); !errors.Is(err, ErrTenantLost) {
				t.Fatalf("second touch: err = %v, want ErrTenantLost", err)
			}
			if _, err := g.Checkpoint("victim"); !errors.Is(err, ErrTenantLost) {
				t.Fatalf("checkpoint of lost tenant: err = %v, want ErrTenantLost", err)
			}

			if inj.quarantine {
				q, err := disk.Quarantined()
				if err != nil {
					t.Fatal(err)
				}
				if len(q) != 1 || q[0] != "victim" {
					t.Fatalf("Quarantined = %v, want [victim]", q)
				}
			}
			if st := g.Stats(); st.Lost != 1 {
				t.Fatalf("Stats.Lost = %d, want 1", st.Lost)
			}
			for _, ti := range g.List() {
				if ti.Name == "victim" && !ti.Lost {
					t.Fatal("List does not flag the victim lost")
				}
				if ti.Name == "healthy" && ti.Lost {
					t.Fatal("List flags the healthy tenant lost")
				}
			}

			// The rest of the registry is unharmed: the healthy tenant
			// restores from its own spill and serves.
			if _, err := g.Blocks("healthy"); err != nil {
				t.Fatalf("healthy tenant after %s: %v", inj.name, err)
			}

			// Delete clears the name; a re-Create starts fresh.
			if err := g.Delete("victim"); err != nil {
				t.Fatal(err)
			}
			if err := g.Create(nil, "victim", base, TenantOptions{K: k, Processes: p}); err != nil {
				t.Fatalf("re-create after loss: %v", err)
			}
			if _, _, err := g.Partition(nil, "victim"); err != nil {
				t.Fatalf("re-created tenant: %v", err)
			}
		})
	}
}

// TestMutatedSpillNeverCrashes is the registry-level corruption
// differential: a few hundred random byte mutations of a real spilled
// checkpoint, each registered through Recover and driven through
// ensureResident. Every outcome must be either a clean restore (a
// mutation can land in slack bytes) or a typed ErrTenantLost — never a
// panic, and the registry must stay serviceable throughout.
func TestMutatedSpillNeverCrashes(t *testing.T) {
	const k, p = 4, 2
	m := tenantMesh(t, 600, 5)
	base := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}

	// One real spill to harvest bytes and metadata from.
	seedRegistry, seedDisk := diskRegistry(t, Config{})
	parkTenant(t, seedRegistry, "seed", base, k, p)
	ckpt, meta, err := seedDisk.Get("seed")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		mutated := append([]byte(nil), ckpt...)
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		disk, err := store.NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := disk.Put("mut", mutated, meta); err != nil {
			t.Fatal(err)
		}
		g := NewRegistry(Config{Store: disk})
		if n, err := g.Recover(); err != nil || n != 1 {
			t.Fatalf("trial %d: Recover = %d, %v", trial, n, err)
		}
		_, err = g.Blocks("mut")
		if err != nil && !errors.Is(err, ErrTenantLost) {
			t.Fatalf("trial %d: untyped error %v", trial, err)
		}
		// The registry is still alive either way.
		if st := g.Stats(); st.Tenants != 1 {
			t.Fatalf("trial %d: registry unhealthy: %+v", trial, st)
		}
	}
}

// TestDaemonRestartRoundTrip is the crash-recovery differential: drive
// tenant chains partway, park everything, abandon the registry without
// Drain (the kill -9 shape — nothing graceful runs), build a new
// registry over the same spill directory, Recover, and finish the
// chains. Every step after the "restart" must be bit-identical to the
// never-evicted solo chain with equal DistCalcs — including the carried
// incremental bounds and a weight delta left pending across the crash.
func TestDaemonRestartRoundTrip(t *testing.T) {
	const n, k, p, steps, restartAfter = 1200, 6, 2, 4, 2
	type tenantCase struct {
		name string
		base *geom.PointSet
		wAt  func(int) []float64
	}
	m := tenantMesh(t, n, 7)
	feat := mixtureTenant(900, 8, 5, 23)
	cases := []tenantCase{
		{"mesh", m.Points, func(step int) []float64 { return phaseWeights(m, step) }},
		{"feature", feat, func(step int) []float64 { return featureWeights(feat, step) }},
	}

	refs := make(map[string][][]int32)
	soloSt := make(map[string][]int64)
	for _, tc := range cases {
		chain, stats := soloChainPts(t, tc.base, tc.wAt, k, p, steps)
		refs[tc.name] = chain
		dc := make([]int64, len(stats))
		for i, st := range stats {
			dc[i] = st.Info.DistCalcs
		}
		soloSt[tc.name] = dc
	}

	dir := t.TempDir()
	disk, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := NewRegistry(Config{Store: disk})
	for _, tc := range cases {
		ps := &geom.PointSet{Dim: tc.base.Dim, Coords: tc.base.Coords, Weight: tc.wAt(0)}
		if err := g1.Create(nil, tc.name, ps, TenantOptions{K: k, Processes: p}); err != nil {
			t.Fatal(err)
		}
		p0, _, err := g1.Partition(nil, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAssign(t, tc.name+" cold", p0.Assign, refs[tc.name][0])
		for step := 1; step <= restartAfter; step++ {
			if err := g1.UpdateWeights(tc.name, tc.wAt(step)); err != nil {
				t.Fatal(err)
			}
			pt, _, acted, err := g1.RepartitionIfAbove(nil, tc.name, 0)
			if err != nil || !acted {
				t.Fatalf("%s pre-restart step %d: acted=%v err=%v", tc.name, step, acted, err)
			}
			assertSameAssign(t, fmt.Sprintf("%s pre-restart step %d", tc.name, step), pt.Assign, refs[tc.name][step])
		}
		// Leave the next weight delta pending, then park: both must
		// survive the crash inside the spill.
		if err := g1.UpdateWeights(tc.name, tc.wAt(restartAfter+1)); err != nil {
			t.Fatal(err)
		}
		if err := g1.Evict(tc.name); err != nil {
			t.Fatal(err)
		}
	}
	// kill -9: no Drain, no Delete — g1 is simply abandoned.
	g1 = nil

	g2 := NewRegistry(Config{Store: disk})
	recovered, err := g2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != len(cases) {
		t.Fatalf("Recover registered %d tenants, want %d", recovered, len(cases))
	}
	for _, tc := range cases {
		for step := restartAfter + 1; step <= steps; step++ {
			if step > restartAfter+1 {
				// The pending delta for restartAfter+1 crossed the crash;
				// later steps update normally.
				if err := g2.UpdateWeights(tc.name, tc.wAt(step)); err != nil {
					t.Fatal(err)
				}
			}
			pt, st, acted, err := g2.RepartitionIfAbove(nil, tc.name, 0)
			if err != nil || !acted {
				t.Fatalf("%s post-restart step %d: acted=%v err=%v", tc.name, step, acted, err)
			}
			assertSameAssign(t, fmt.Sprintf("%s post-restart step %d", tc.name, step), pt.Assign, refs[tc.name][step])
			if st.Info.DistCalcs != soloSt[tc.name][step] {
				t.Fatalf("%s post-restart step %d: %d distance calcs, solo %d",
					tc.name, step, st.Info.DistCalcs, soloSt[tc.name][step])
			}
			if step == restartAfter+1 && !st.Info.CarriedBounds {
				t.Fatalf("%s first post-restart step fell off the incremental fast path", tc.name)
			}
		}
	}
	if st := g2.Stats(); st.Restores != int64(len(cases)) || st.Lost != 0 {
		t.Fatalf("post-restart stats: %+v", st)
	}
}

// TestDrainParksDurably: a graceful shutdown (Drain) spills every
// resident tenant, and a successor registry over the same store picks
// them all up.
func TestDrainParksDurably(t *testing.T) {
	const k, p = 4, 2
	m := tenantMesh(t, 700, 9)
	base := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}

	dir := t.TempDir()
	disk, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := NewRegistry(Config{Store: disk})
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := g1.Create(nil, name, base, TenantOptions{K: k, Processes: p}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g1.Partition(nil, name); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string][]int32)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		b, err := g1.Blocks(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = b
	}
	if parked := g1.Drain(); parked != 3 {
		t.Fatalf("Drain parked %d tenants, want 3", parked)
	}

	g2 := NewRegistry(Config{Store: disk})
	if n, err := g2.Recover(); err != nil || n != 3 {
		t.Fatalf("Recover = %d, %v; want 3", n, err)
	}
	for name, w := range want {
		b, err := g2.Blocks(name)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAssign(t, "drain round trip "+name, b, w)
	}
}

// TestNonFiniteSpillIsLost: a spill whose frame verifies but whose point
// set holds a NaN coordinate (a buggy or hostile producer, re-sealed
// through the store) is refused at restore. The tenant answers HTTP 410
// and ErrTenantLost and its spill is quarantined; no warm step ever runs
// on the poisoned values.
func TestNonFiniteSpillIsLost(t *testing.T) {
	const k, p = 4, 2
	m := tenantMesh(t, 600, 4)
	base := &geom.PointSet{Dim: m.Points.Dim, Coords: m.Points.Coords, Weight: phaseWeights(m, 0)}
	g, disk := diskRegistry(t, Config{})
	parkTenant(t, g, "victim", base, k, p)

	data, meta, err := disk.Get("victim")
	if err != nil {
		t.Fatal(err)
	}
	// The first coordinate follows the 28-byte session header and the
	// coordinate slice's u64 length.
	binary.LittleEndian.PutUint64(data[28+8:], math.Float64bits(math.NaN()))
	if err := disk.Put("victim", data, meta); err != nil {
		t.Fatal(err)
	}

	var body map[string]string
	httpDo(t, NewHandler(g), "POST", "/v1/tenants/victim/repartition",
		map[string]float64{"eps": 0}, http.StatusGone, &body)
	if !strings.Contains(body["error"], "non-finite") {
		t.Fatalf("410 body %q does not name the non-finite value", body["error"])
	}
	if _, err := g.Blocks("victim"); !errors.Is(err, ErrTenantLost) {
		t.Fatalf("second touch: err = %v, want ErrTenantLost", err)
	}
	if q, err := disk.Quarantined(); err != nil || len(q) != 1 || q[0] != "victim" {
		t.Fatalf("Quarantined = %v, %v; want [victim]", q, err)
	}
}
