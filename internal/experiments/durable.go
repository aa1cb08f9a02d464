package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"geographer/internal/serve"
	"geographer/internal/store"
)

// Durability-fence shape: durableTenants tenants drive warm
// repartitioning chains through a registry spilling to a real disk
// store. Phase A parks every tenant mid-chain (pending weight delta on
// board) and then injures a subset of the spill files directly on disk
// — a torn write (truncation at a random offset), a bit-flip, a
// deletion — before the chains resume. Phase B parks a fresh set of
// tenants and abandons the registry without Drain (the kill -9 shape),
// then recovers a brand-new registry from the same directory. The
// chain/step/k/p geometry matches the serve experiment so the solo
// reference helpers are shared.
const (
	durableTenants = 6
	// durableInjured maps injured tenant id → injury kind. Even ids
	// survive; odd ids each get one of the three corruption modes.
	durableTorn   = 1
	durableFlip   = 3
	durableDelete = 5
)

// DurableCell is the whole fence summarized for BENCH_durable.json.
// Everything except wall time is an exact function of the workload and
// the injury schedule, and durableReport lists it as strict.
type DurableCell struct {
	Tenants int `json:"tenants"`
	N       int `json:"n"`
	K       int `json:"k"`
	P       int `json:"p"`
	Steps   int `json:"steps"`

	// Phase A (injury fence).
	Parks          int64 `json:"parks"`
	Restores       int64 `json:"restores"`
	InjectedTorn   int   `json:"injected_torn"`
	InjectedFlip   int   `json:"injected_flip"`
	InjectedDelete int   `json:"injected_delete"`
	// Quarantined counts .quarantine files after the fence: torn and
	// flipped spills are set aside; a deleted spill leaves nothing to
	// quarantine.
	Quarantined int `json:"quarantined"`
	// LostTyped counts injured tenants whose every post-injury verb
	// failed with the typed, sticky ErrTenantLost (and nothing else —
	// a panic or an untyped error fails the run outright).
	LostTyped int `json:"lost_typed"`
	// SurvivorChains counts uninjured tenants whose full chain stayed
	// bit-identical to solo with exactly solo's distance evaluations.
	SurvivorChains int `json:"survivor_chains"`

	// Phase B (crash recovery).
	Recovered       int `json:"recovered"`
	RecoveredChains int `json:"recovered_chains"`

	DistCalcs int64   `json:"dist_calcs"`
	WallSec   float64 `json:"wall_sec"`
}

// durableReport is the BENCH_durable.json header (see Report).
var durableReport = Report[DurableCell]{
	Schema: "geographer-durable/v1",
	Key:    []string{"tenants", "n", "k", "p", "steps"},
	Strict: []string{"parks", "restores", "injected_torn", "injected_flip", "injected_delete",
		"quarantined", "lost_typed", "survivor_chains", "recovered", "recovered_chains", "dist_calcs"},
}

// check is the headline invariant of a finished cell:
// quarantine-not-crash, untouched survivors, complete cold recovery.
func (c DurableCell) check() error {
	injured := c.InjectedTorn + c.InjectedFlip + c.InjectedDelete
	if c.LostTyped != injured {
		return fmt.Errorf("%d injuries but only %d degraded to the typed ErrTenantLost", injured, c.LostTyped)
	}
	if c.Quarantined != c.InjectedTorn+c.InjectedFlip {
		return fmt.Errorf("quarantined %d spills, want %d (torn + flipped)", c.Quarantined, c.InjectedTorn+c.InjectedFlip)
	}
	if want := c.Tenants - injured; c.SurvivorChains != want {
		return fmt.Errorf("%d of %d uninjured chains diverged from their solo references", want-c.SurvivorChains, want)
	}
	if c.Recovered != c.Tenants || c.RecoveredChains != c.Tenants {
		return fmt.Errorf("cold recovery resumed %d/%d tenants, %d/%d chains bit-identical",
			c.Recovered, c.Tenants, c.RecoveredChains, c.Tenants)
	}
	return nil
}

// durableChain is one tenant's registry-side chain state while it is
// driven step by step against its solo reference.
type durableChain struct {
	name      string
	ref       tenantRef
	identical bool
	distCalcs int64
}

// durableCreateAndWarm creates tenant id in g, runs the cold partition
// and warm step 1 against the solo reference, stages the step-2 weight
// update (so the park carries a pending-looking delta), and parks it.
func durableCreateAndWarm(g *serve.Registry, id int, c *durableChain) error {
	m := c.ref.m
	if err := g.Create(nil, c.name, atStep(m, 7*id), serve.TenantOptions{K: serveK, Processes: serveP, Workers: serveBudget}); err != nil {
		return err
	}
	p, _, err := g.Partition(nil, c.name)
	if err != nil {
		return err
	}
	if !sameAssign(p.Assign, c.ref.chain[0]) {
		c.identical = false
	}
	if err := g.UpdateWeights(c.name, perturbedWeights(m, 7*id+1)); err != nil {
		return err
	}
	if err := durableStep(g, c, 1); err != nil {
		return err
	}
	// Stage the next step's weights before parking: the spill must
	// carry them and the restored step must still be incremental.
	if err := g.UpdateWeights(c.name, perturbedWeights(m, 7*id+2)); err != nil {
		return err
	}
	return g.Evict(c.name)
}

// durableStep runs warm step t through the registry and checks it
// against the solo reference.
func durableStep(g *serve.Registry, c *durableChain, t int) error {
	p, st, acted, err := g.RepartitionIfAbove(nil, c.name, 0)
	if err != nil {
		return err
	}
	if !acted {
		return fmt.Errorf("%s step %d did not act", c.name, t)
	}
	if !sameAssign(p.Assign, c.ref.chain[t]) {
		c.identical = false
	}
	c.distCalcs += st.Info.DistCalcs
	return nil
}

// durableFinish drives the remaining warm steps (2..serveSteps) of a
// restored tenant, feeding each step's weights first. Step 2's weights
// were already staged before the park.
func durableFinish(g *serve.Registry, id int, c *durableChain) error {
	for t := 2; t <= serveSteps; t++ {
		if t > 2 {
			if err := g.UpdateWeights(c.name, perturbedWeights(c.ref.m, 7*id+t)); err != nil {
				return err
			}
		}
		if err := durableStep(g, c, t); err != nil {
			return err
		}
	}
	return nil
}

// chainGood reports whether a finished chain met the bit-identicality
// bar: every step equal to solo and exactly solo's distance count.
func (c *durableChain) chainGood() bool {
	return c.identical && c.distCalcs == c.ref.distCalcs
}

// injure corrupts tenant id's spill file in place, returning a
// description of what it did.
func injure(disk *store.Disk, name string, id int, rng *rand.Rand) (string, error) {
	path := disk.Path(name)
	switch id {
	case durableTorn:
		fi, err := os.Stat(path)
		if err != nil {
			return "", err
		}
		off := 1 + rng.Intn(int(fi.Size())-1)
		return fmt.Sprintf("torn write (truncated to %d of %d bytes)", off, fi.Size()),
			os.Truncate(path, int64(off))
	case durableFlip:
		raw, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		raw[rng.Intn(len(raw))] ^= 1 << rng.Intn(8)
		return "bit-flip", os.WriteFile(path, raw, 0o644)
	case durableDelete:
		return "deleted spill", os.Remove(path)
	}
	return "", fmt.Errorf("tenant %d has no injury", id)
}

// durableChains starts one registry-side chain per solo reference.
func durableChains(refs []tenantRef) []durableChain {
	chains := make([]durableChain, len(refs))
	for id, ref := range refs {
		chains[id] = durableChain{name: fmt.Sprintf("durable-%d", id), ref: ref, identical: true}
	}
	return chains
}

// Durable runs the durability chaos fence (DESIGN.md, "Durability
// invariants"): park/restore cycles through a real disk spill store
// under injected torn writes, bit-flips, and deleted spill files, then
// a registry abandoned without Drain and recovered cold from the
// directory. The claims under test: an injured tenant degrades to the
// sticky typed ErrTenantLost — never a crash, never wrong bytes — with
// its spill quarantined; every uninjured tenant's chain stays
// bit-identical to its solo reference with exactly solo's distance
// evaluations; and a recovered registry resumes every parked chain
// bit-identically. A finished run that breaks a claim returns its report
// together with the invariant error (see Report).
func Durable(w io.Writer, sc Scale) (Report[DurableCell], error) {
	rep := durableReport
	n := sc.Table2N
	cell := DurableCell{
		Tenants: durableTenants, N: n, K: serveK, P: serveP, Steps: serveSteps,
		InjectedTorn: 1, InjectedFlip: 1, InjectedDelete: 1,
	}
	fmt.Fprintf(w, "Durability fence: %d tenants (n=%d k=%d p=%d, %d warm steps), disk spills; injuries: tenant %d torn write, %d bit-flip, %d deleted\n",
		durableTenants, n, serveK, serveP, serveSteps, durableTorn, durableFlip, durableDelete)

	refs, err := tenantRefs(durableTenants, n)
	if err != nil {
		return rep, err
	}
	chains := durableChains(refs)
	t0 := time.Now()

	// ---- Phase A: injuries against parked spills ----
	dirA, err := os.MkdirTemp("", "geographer-durable-a-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dirA)
	diskA, err := store.NewDisk(dirA)
	if err != nil {
		return rep, err
	}
	gA := serve.NewRegistry(serve.Config{Store: diskA})
	defer gA.Drain()

	for id := range chains {
		if err := durableCreateAndWarm(gA, id, &chains[id]); err != nil {
			return rep, fmt.Errorf("phase A tenant %d: %w", id, err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	injured := map[int]bool{durableTorn: true, durableFlip: true, durableDelete: true}
	for id := range chains {
		if !injured[id] {
			continue
		}
		what, err := injure(diskA, chains[id].name, id, rng)
		if err != nil {
			return rep, fmt.Errorf("injuring tenant %d: %w", id, err)
		}
		fmt.Fprintf(w, "  injured %s: %s\n", chains[id].name, what)
	}

	for id := range chains {
		c := &chains[id]
		if injured[id] {
			// Every verb on an injured tenant must degrade to the typed,
			// sticky sentinel — verified twice to pin stickiness.
			_, _, _, err1 := gA.RepartitionIfAbove(nil, c.name, 0)
			_, err2 := gA.Checkpoint(c.name)
			if errors.Is(err1, serve.ErrTenantLost) && errors.Is(err2, serve.ErrTenantLost) {
				cell.LostTyped++
			} else {
				return rep, fmt.Errorf("injured tenant %d: want sticky ErrTenantLost, got %v then %v", id, err1, err2)
			}
			continue
		}
		if err := durableFinish(gA, id, c); err != nil {
			return rep, fmt.Errorf("phase A survivor %d: %w", id, err)
		}
		if c.chainGood() {
			cell.SurvivorChains++
		}
		cell.DistCalcs += c.distCalcs
	}
	qs, err := diskA.Quarantined()
	if err != nil {
		return rep, err
	}
	cell.Quarantined = len(qs)
	stA := gA.Stats()
	cell.Parks += stA.Evictions
	cell.Restores += stA.Restores
	fmt.Fprintf(w, "phase A: %d survivors bit-identical, %d injured tenants typed-lost, %d spills quarantined, registry healthy (lost=%d)\n",
		cell.SurvivorChains, cell.LostTyped, cell.Quarantined, stA.Lost)

	// ---- Phase B: abandon without Drain, recover cold ----
	dirB, err := os.MkdirTemp("", "geographer-durable-b-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dirB)
	diskB, err := store.NewDisk(dirB)
	if err != nil {
		return rep, err
	}
	chainsB := durableChains(refs)
	gB1 := serve.NewRegistry(serve.Config{Store: diskB})
	for id := range chainsB {
		if err := durableCreateAndWarm(gB1, id, &chainsB[id]); err != nil {
			return rep, fmt.Errorf("phase B tenant %d: %w", id, err)
		}
	}
	stB1 := gB1.Stats()
	cell.Parks += stB1.Evictions
	cell.Restores += stB1.Restores
	// gB1 is abandoned here — no Drain, no cleanup. Everything it knew
	// is gone except the spill directory; that is the kill -9 contract.

	gB2 := serve.NewRegistry(serve.Config{Store: diskB})
	defer gB2.Drain()
	recovered, err := gB2.Recover()
	if err != nil {
		return rep, err
	}
	cell.Recovered = recovered
	for id := range chainsB {
		c := &chainsB[id]
		if err := durableFinish(gB2, id, c); err != nil {
			return rep, fmt.Errorf("phase B recovered tenant %d: %w", id, err)
		}
		if c.chainGood() {
			cell.RecoveredChains++
		}
		cell.DistCalcs += c.distCalcs
	}
	stB2 := gB2.Stats()
	cell.Restores += stB2.Restores
	cell.WallSec = time.Since(t0).Seconds()
	rep.Cells = append(rep.Cells, cell)

	fmt.Fprintf(w, "phase B: recovered %d parked tenants cold, %d chains finished bit-identically\n",
		recovered, cell.RecoveredChains)
	fmt.Fprintf(w, "summary: parks=%d restores=%d quarantined=%d lost_typed=%d survivors=%d/%d recovered_chains=%d/%d dist_calcs=%d wall=%.3fs\n",
		cell.Parks, cell.Restores, cell.Quarantined, cell.LostTyped,
		cell.SurvivorChains, durableTenants-len(injured), cell.RecoveredChains, durableTenants,
		cell.DistCalcs, cell.WallSec)
	return rep, cell.check()
}
