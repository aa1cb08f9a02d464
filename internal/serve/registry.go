// Package serve is the multi-tenant session registry behind the
// partitioning service (cmd/geographerd): named long-lived
// repart.Sessions — one per tenant — sharing one process under a
// bounded worker pool (internal/sched), a resident-memory budget with
// admission control, and LRU eviction that parks cold tenants as
// checkpoint bytes (repart.Session.Checkpoint) and restores them
// bit-identically on next touch (DESIGN.md, "Multi-tenancy
// invariants").
//
// Concurrency model. The registry mutex guards only the tenant map and
// the shared accounting (resident bytes, the LRU clock, eviction
// counters); each tenant has its own mutex serializing its session
// verbs. Lock order is tenant → registry, and a tenant lock is only
// ever taken non-blocking (TryLock) while the registry lock is held —
// the eviction scan — so verbs on distinct tenants run concurrently
// and the registry cannot deadlock: a busy tenant is simply not a
// victim this round.
//
// Durability model. Parked tenants live in a pluggable checkpoint store
// (internal/store), not in process memory: eviction writes the
// checkpoint through Config.Store, restore-on-touch reads it back, and
// with the disk backend the spill outlives the daemon — Recover scans
// the store at startup and re-registers every surviving tenant, so a
// kill -9 between verbs loses nothing that was parked. The spill is
// kept (not consumed) on restore and deleted only when the first
// mutating verb lands, so an on-store spill is always current: crash
// recovery can never resurrect stale state. A corrupt or missing spill
// — and nothing else — marks the tenant lost: a sticky, typed
// ErrTenantLost (HTTP 410) for that tenant only; the registry itself
// never crashes on bad bytes (DESIGN.md, "Durability invariants").
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/mpi"
	"geographer/internal/partition"
	"geographer/internal/repart"
	"geographer/internal/sched"
	"geographer/internal/store"
)

// Typed registry errors; the HTTP layer maps each to a distinct status
// code.
var (
	// ErrNotFound: the named tenant does not exist (or was deleted).
	ErrNotFound = fmt.Errorf("serve: no such tenant")
	// ErrExists: Create on a name already in the registry.
	ErrExists = fmt.Errorf("serve: tenant already exists")
	// ErrAdmission: admitting the tenant would exceed the registry's
	// resident-memory or tenant-count budget and no idle victim could
	// be evicted to make room. The request may succeed later.
	ErrAdmission = fmt.Errorf("serve: admission rejected: resident budget exhausted")
	// ErrDraining: the registry is shutting down; no new verbs.
	ErrDraining = fmt.Errorf("serve: registry is draining")
	// ErrTenantLost: the tenant's only copy of state — its spilled
	// checkpoint — is corrupt or missing (quarantined by the store). A
	// spill fault is the only way to lose a tenant: a verb whose world
	// breaks leaves the session as it was. Sticky for the tenant until
	// it is Deleted; the registry stays healthy.
	ErrTenantLost = fmt.Errorf("serve: tenant state lost")
)

// Config sizes a Registry.
type Config struct {
	// Pool is the process worker pool tenants lease their kernel
	// helper budgets from; nil uses sched.Default() (GOMAXPROCS).
	Pool *sched.Pool

	// MaxResidentBytes caps the estimated resident footprint of all
	// non-parked tenants; 0 means unlimited. When a Create or a restore
	// of a parked tenant would exceed it, least-recently-used idle
	// tenants are evicted to checkpoint bytes until the newcomer fits —
	// or ErrAdmission if nothing evictable remains.
	MaxResidentBytes int64

	// MaxTenants caps the total tenant count (resident + parked);
	// 0 means unlimited. Unlike the byte budget this is not relieved
	// by eviction — parked tenants still hold their checkpoint — so
	// exceeding it fails Create with ErrAdmission.
	MaxTenants int

	// Store holds parked tenants' checkpoints. nil uses an in-process
	// store.Memory (the pre-spill behavior: parked state dies with the
	// process); a store.Disk makes parked tenants durable across daemon
	// restarts and crashes (see Recover).
	Store store.Store
}

// TenantOptions configures one tenant's session at Create time.
type TenantOptions struct {
	// K is the number of blocks (required, ≥ 1).
	K int
	// Processes is the simulated rank count (default 4).
	Processes int
	// Workers is the tenant's leased worker budget: the maximum
	// intra-rank kernel parallelism this tenant may reach across all
	// its ranks together. 0 leases the pool's full capacity (a solo
	// tenant behaves exactly like a plain session); 1 forces serial
	// kernels. The budget is execution policy only — it never changes
	// partition output.
	Workers int
	// Epsilon is the balance constraint ε (default 0.03).
	Epsilon float64
	// Seed drives the sampled initialization (default 1).
	Seed int64
}

// config builds the tenant's core configuration for n points (without
// the lease, which Create attaches after admission). K and the process
// count are bounded by n: beyond it they only add empty blocks or idle
// ranks, and with n bounded by the request body they keep
// residentBytesEstimate from overflowing.
func (o TenantOptions) config(n int) (core.Config, int, error) {
	cfg := core.DefaultConfig()
	if o.Epsilon != 0 {
		cfg.Epsilon = o.Epsilon
	}
	cfg.Seed = o.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := o.Processes
	if p == 0 {
		p = 4
	}
	if p < 1 {
		return cfg, 0, fmt.Errorf("serve: processes=%d", p)
	}
	if p > n {
		return cfg, 0, fmt.Errorf("serve: processes=%d exceeds the %d points", p, n)
	}
	if o.K > n {
		return cfg, 0, fmt.Errorf("serve: k=%d exceeds the %d points", o.K, n)
	}
	if o.Workers < 0 {
		return cfg, 0, fmt.Errorf("serve: workers=%d", o.Workers)
	}
	if err := cfg.Validate(o.K); err != nil {
		return cfg, 0, err
	}
	return cfg, p, nil
}

// tenant is one named session slot: either resident (sess != nil) or
// parked as checkpoint bytes in the registry's store (spilled). Its
// mutex serializes the tenant's verbs; restore-on-touch happens under
// it.
type tenant struct {
	mu sync.Mutex

	name    string
	k, p    int
	workers int // the Create-time lease request, preserved for Recover
	cfg     core.Config

	sess *repart.Session
	// spilled: the store holds a current checkpoint for this tenant.
	// True from eviction until the first mutating verb after restore
	// invalidates it (the spill is then deleted, never left stale).
	spilled bool
	// lost: the tenant's state is unrecoverable — its spill was
	// corrupt or missing at restore. Sticky until Delete.
	lost bool

	n, dim int
	bytes  int64 // estimated resident footprint (residentBytesEstimate)

	// Guarded by the registry mutex, not t.mu: the LRU stamp and the
	// residency flag the eviction scan reads without taking t.mu
	// (resident mirrors sess != nil; every transition holds both
	// mutexes or happens before the tenant is published).
	lastUsed int64
	resident bool

	steps, evictions, restores int64
	deleted                    bool
}

// spillMeta is the JSON metadata record stored beside each spilled
// checkpoint — everything Recover needs to re-register the tenant
// (configuration is policy and is NOT inside the checkpoint payload,
// so it travels here).
type spillMeta struct {
	K       int     `json:"k"`
	P       int     `json:"p"`
	Workers int     `json:"workers"`
	Epsilon float64 `json:"epsilon"`
	Seed    int64   `json:"seed"`
	N       int     `json:"n"`
	Dim     int     `json:"dim"`
	Steps   int64   `json:"steps"`
}

// spillMetaJSON builds t's metadata record. Caller holds t.mu.
func (t *tenant) spillMetaJSON() []byte {
	m := spillMeta{
		K: t.k, P: t.p, Workers: t.workers,
		Epsilon: t.cfg.Epsilon, Seed: t.cfg.Seed,
		N: t.n, Dim: t.dim, Steps: t.steps,
	}
	b, err := json.Marshal(m)
	if err != nil {
		// spillMeta is a struct of scalars; Marshal cannot fail.
		panic(err)
	}
	return b
}

// Registry is the tenant registry. All methods are safe for concurrent
// use; verbs on distinct tenants run concurrently.
type Registry struct {
	mu  sync.Mutex
	cfg Config

	pool    *sched.Pool
	store   store.Store
	tenants map[string]*tenant

	clock         int64 // logical LRU clock, bumped per verb
	residentBytes int64
	evictions     int64
	restores      int64
	lostCount     int64
	draining      bool
}

// NewRegistry returns an empty registry under cfg's budgets.
func NewRegistry(cfg Config) *Registry {
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Default()
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMemory()
	}
	return &Registry{cfg: cfg, pool: pool, store: st, tenants: make(map[string]*tenant)}
}

// residentBytesEstimate approximates a tenant's resident footprint: the
// session-held global point set and partition, the per-rank SoA columns
// with their per-point kernel state (assignment, Hamerly bounds, raw
// shadow, ids — distributed, so ~1× n in total), and the replicated
// per-rank center tables. A deterministic function of the tenant shape,
// so admission decisions reproduce run to run.
func residentBytesEstimate(n, dim, k, p int) int64 {
	global := int64(n) * int64(dim*8+8+4)
	resident := int64(n) * int64(dim*8+8+8+4+3*8)
	tables := int64(p) * int64(k) * int64((dim+1)*32+64)
	return global + resident + tables
}

// Create admits a new tenant and ingests its point set into a resident
// session. The point set is cloned; the caller may reuse its slices.
// Cancelling ctx mid-ingest aborts the build and the tenant is not
// registered (nil ctx = not cancellable).
func (g *Registry) Create(ctx context.Context, name string, ps *geom.PointSet, opts TenantOptions) error {
	if name == "" {
		return fmt.Errorf("serve: empty tenant name")
	}
	if err := ps.Validate(); err != nil {
		return err
	}
	cfg, p, err := opts.config(ps.Len())
	if err != nil {
		return err
	}

	t := &tenant{
		name: name, k: opts.K, p: p, workers: opts.Workers, cfg: cfg,
		n: ps.Len(), dim: ps.Dim,
		bytes: residentBytesEstimate(ps.Len(), ps.Dim, opts.K, p),
	}
	// Reserve the name before the (slow) ingest so concurrent Creates
	// of the same name see ErrExists, and hold t.mu across the ingest
	// so concurrent verbs on the half-built tenant queue behind it.
	t.mu.Lock()
	defer t.mu.Unlock()
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return ErrDraining
	}
	if _, ok := g.tenants[name]; ok {
		g.mu.Unlock()
		return ErrExists
	}
	if g.cfg.MaxTenants > 0 && len(g.tenants) >= g.cfg.MaxTenants {
		g.mu.Unlock()
		return fmt.Errorf("%w (%d tenants, cap %d)", ErrAdmission, len(g.tenants), g.cfg.MaxTenants)
	}
	g.clock++
	t.lastUsed = g.clock
	g.tenants[name] = t
	g.mu.Unlock()

	abort := func(err error) error {
		g.mu.Lock()
		delete(g.tenants, name)
		g.mu.Unlock()
		t.deleted = true
		return err
	}
	if err := g.admit(t); err != nil {
		return abort(err)
	}
	cfg.Lease = g.pool.Lease(opts.Workers)
	t.cfg = cfg
	sess, err := repart.NewSessionCtx(ctx, mpi.NewWorld(p), ps.Clone(), opts.K, cfg)
	if err != nil {
		g.unadmit(t)
		return abort(err)
	}
	t.sess = sess
	g.mu.Lock()
	t.resident = true
	g.mu.Unlock()
	return nil
}

// admit charges t.bytes against the resident budget, evicting
// least-recently-used idle tenants as needed. Caller holds t.mu (or is
// initializing t); never blocks on another tenant's mutex.
func (g *Registry) admit(t *tenant) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.cfg.MaxResidentBytes > 0 && g.residentBytes+t.bytes > g.cfg.MaxResidentBytes {
		v := g.victimLocked(t)
		if v == nil {
			return fmt.Errorf("%w (%d resident + %d new > cap %d, no evictable tenant)",
				ErrAdmission, g.residentBytes, t.bytes, g.cfg.MaxResidentBytes)
		}
		err := g.evictLocked(v)
		v.mu.Unlock()
		if err != nil {
			return err
		}
	}
	g.residentBytes += t.bytes
	return nil
}

// unadmit returns t's charge after a failed build/restore.
func (g *Registry) unadmit(t *tenant) {
	g.mu.Lock()
	g.residentBytes -= t.bytes
	g.mu.Unlock()
}

// victimLocked picks the least-recently-used resident tenant whose
// mutex can be taken without blocking, excluding t. Caller holds g.mu;
// on success the victim's mutex is held.
func (g *Registry) victimLocked(t *tenant) *tenant {
	var best *tenant
	for _, c := range g.tenants {
		if c == t || !c.resident {
			continue
		}
		if best == nil || c.lastUsed < best.lastUsed {
			best = c
		}
	}
	for best != nil {
		if best.mu.TryLock() {
			if best.sess != nil && !best.deleted {
				return best
			}
			best.mu.Unlock()
		}
		// Busy (or raced away): try the next-oldest resident tenant.
		next := (*tenant)(nil)
		for _, c := range g.tenants {
			if c == t || !c.resident || c.lastUsed <= best.lastUsed {
				continue
			}
			if next == nil || c.lastUsed < next.lastUsed {
				next = c
			}
		}
		best = next
	}
	return nil
}

// evictLocked parks a resident tenant: its checkpoint is written
// through the registry's store (spill), then the session is released.
// If the spill write fails the tenant stays resident — never release
// state whose only copy didn't land. Caller holds g.mu and v.mu.
func (g *Registry) evictLocked(v *tenant) error {
	data, err := v.sess.Checkpoint()
	if err != nil {
		return fmt.Errorf("serve: evict %s: %w", v.name, err)
	}
	if err := g.store.Put(v.name, data, v.spillMetaJSON()); err != nil {
		return fmt.Errorf("serve: spill %s: %w", v.name, err)
	}
	g.releaseLocked(v)
	v.spilled = true
	v.evictions++
	g.evictions++
	return nil
}

// releaseLocked closes t's resident session and returns its admission
// charge. Caller holds g.mu and t.mu.
func (g *Registry) releaseLocked(t *tenant) {
	t.sess.Close()
	t.sess = nil
	t.resident = false
	g.residentBytes -= t.bytes
}

// release is releaseLocked for a caller that holds only t.mu.
func (g *Registry) release(t *tenant) {
	g.mu.Lock()
	g.releaseLocked(t)
	g.mu.Unlock()
}

// lookup finds a tenant and stamps its LRU clock.
func (g *Registry) lookup(name string, touch bool) (*tenant, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return nil, ErrDraining
	}
	t, ok := g.tenants[name]
	if !ok {
		return nil, ErrNotFound
	}
	if touch {
		g.clock++
		t.lastUsed = g.clock
	}
	return t, nil
}

// markLost flags t unrecoverable. Caller holds t.mu.
func (g *Registry) markLost(t *tenant) {
	g.mu.Lock()
	if !t.lost {
		t.lost = true
		g.lostCount++
	}
	g.mu.Unlock()
}

// ensureResident restores a parked tenant from its spill (admission
// included). A corrupt spill has already been quarantined by the store
// when Get reports it; a checkpoint that passes the store's integrity
// check but fails the session decode is quarantined here. Either way —
// and for a missing spill — the tenant is marked lost and the error is
// a typed ErrTenantLost; the registry itself stays healthy. Caller
// holds t.mu.
func (g *Registry) ensureResident(t *tenant) error {
	if t.deleted {
		return ErrNotFound
	}
	if t.lost {
		return fmt.Errorf("%w: %s", ErrTenantLost, t.name)
	}
	if t.sess != nil {
		return nil
	}
	if err := g.admit(t); err != nil {
		return err
	}
	data, _, err := g.store.Get(t.name)
	if err != nil {
		g.unadmit(t)
		g.markLost(t)
		return fmt.Errorf("%w: %s: spill unreadable: %v", ErrTenantLost, t.name, err)
	}
	sess, err := repart.NewSessionFromCheckpoint(mpi.NewWorld(t.p), data, t.cfg)
	if err != nil {
		g.unadmit(t)
		_ = g.store.Quarantine(t.name)
		g.markLost(t)
		return fmt.Errorf("%w: %s: spill undecodable (quarantined): %v", ErrTenantLost, t.name, err)
	}
	// The spill stays in the store (t.spilled stays true): it is still
	// the current state until a mutating verb lands, so a crash right
	// after this restore loses nothing.
	t.sess = sess
	t.restores++
	g.mu.Lock()
	t.resident = true
	g.restores++
	g.mu.Unlock()
	return nil
}

// withTenant runs fn on the (restored-if-parked) tenant's session,
// under the tenant mutex. fn reports whether it mutated session state;
// a successful mutation invalidates the tenant's spill (the store copy
// is deleted so crash recovery can never resurrect the pre-mutation
// state). A failed verb changes nothing: a session whose world broke
// mid-verb (a rank panic, a cancelled request context) has already
// healed to its pre-verb state (repart.Session), so the tenant stays
// resident and its spill, if any, stays current.
func (g *Registry) withTenant(name string, fn func(t *tenant) (mutated bool, err error)) error {
	t, err := g.lookup(name, true)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := g.ensureResident(t); err != nil {
		return err
	}
	mutated, err := fn(t)
	if err != nil {
		return err
	}
	if mutated && t.spilled {
		if derr := g.store.Delete(t.name); derr == nil {
			t.spilled = false
		}
	}
	return nil
}

// Partition computes the tenant's cold initial partition and returns
// the assignment with the run's k-means diagnostics. Cancelling ctx
// aborts the verb mid-run and leaves the tenant as it was (nil = not
// cancellable); the context never influences the computed partition.
func (g *Registry) Partition(ctx context.Context, name string) (partition.P, core.Info, error) {
	var p partition.P
	var info core.Info
	err := g.withTenant(name, func(t *tenant) (bool, error) {
		var err error
		p, err = t.sess.PartitionCtx(ctx)
		if err == nil {
			t.steps++
			info = t.sess.LastInfo()
		}
		return err == nil, err
	})
	return p, info, err
}

// RepartitionIfAbove runs a warm step only when the current imbalance
// exceeds eps, reporting whether it acted.
func (g *Registry) RepartitionIfAbove(ctx context.Context, name string, eps float64) (partition.P, repart.Stats, bool, error) {
	var p partition.P
	var st repart.Stats
	var acted bool
	err := g.withTenant(name, func(t *tenant) (bool, error) {
		var err error
		p, st, acted, err = t.sess.RepartitionIfAboveCtx(ctx, eps)
		if err == nil && acted {
			t.steps++
		}
		return err == nil && acted, err
	})
	return p, st, acted, err
}

// UpdateWeights replaces the tenant's point weights (nil = unit).
func (g *Registry) UpdateWeights(name string, weights []float64) error {
	return g.withTenant(name, func(t *tenant) (bool, error) {
		err := t.sess.UpdateWeights(weights)
		return err == nil, err
	})
}

// UpdateCoords replaces the tenant's point coordinates (flat, n·dim).
func (g *Registry) UpdateCoords(name string, coords []float64) error {
	return g.withTenant(name, func(t *tenant) (bool, error) {
		err := t.sess.UpdateCoords(coords)
		return err == nil, err
	})
}

// Imbalance measures the tenant's current imbalance.
func (g *Registry) Imbalance(name string) (float64, error) {
	var imb float64
	err := g.withTenant(name, func(t *tenant) (bool, error) {
		var err error
		imb, err = t.sess.Imbalance()
		return false, err
	})
	return imb, err
}

// Blocks returns the tenant's current partition (nil if none yet).
func (g *Registry) Blocks(name string) ([]int32, error) {
	var b []int32
	err := g.withTenant(name, func(t *tenant) (bool, error) {
		b = t.sess.Blocks()
		return false, nil
	})
	return b, err
}

// Checkpoint serializes the tenant's session. A parked tenant answers
// from its spilled bytes without being restored (the spill is verified
// by the store; a corrupt one marks the tenant lost, exactly as a
// restore would).
func (g *Registry) Checkpoint(name string) ([]byte, error) {
	t, err := g.lookup(name, true)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deleted {
		return nil, ErrNotFound
	}
	if t.lost {
		return nil, fmt.Errorf("%w: %s", ErrTenantLost, t.name)
	}
	if t.sess == nil {
		data, _, err := g.store.Get(t.name)
		if err != nil {
			g.markLost(t)
			return nil, fmt.Errorf("%w: %s: spill unreadable: %v", ErrTenantLost, t.name, err)
		}
		return data, nil
	}
	return t.sess.Checkpoint()
}

// Evict force-parks a tenant as checkpoint bytes, releasing its
// resident state. Evicting a parked tenant is a no-op. Eviction does
// not refresh the tenant's LRU stamp.
func (g *Registry) Evict(name string) error {
	t, err := g.lookup(name, false)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deleted {
		return ErrNotFound
	}
	if t.sess == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evictLocked(t)
}

// Sweep parks every resident tenant whose last touch is at least
// maxIdle verbs old on the registry's logical clock — the idle-eviction
// policy a server loop runs periodically. Returns how many tenants it
// parked. Busy tenants are skipped, never blocked on.
func (g *Registry) Sweep(maxIdle int64) int {
	if maxIdle < 1 {
		maxIdle = 1
	}
	g.mu.Lock()
	var idle []*tenant
	for _, t := range g.tenants {
		if t.resident && g.clock-t.lastUsed >= maxIdle {
			idle = append(idle, t)
		}
	}
	g.mu.Unlock()

	parked := 0
	for _, t := range idle {
		if !t.mu.TryLock() {
			continue // busy = not idle after all
		}
		g.mu.Lock()
		if t.sess != nil && !t.deleted && g.clock-t.lastUsed >= maxIdle {
			if err := g.evictLocked(t); err == nil {
				parked++
			}
		}
		g.mu.Unlock()
		t.mu.Unlock()
	}
	return parked
}

// Delete removes a tenant and releases its state (resident or parked).
// Blocks until the tenant's in-flight verb (if any) completes.
func (g *Registry) Delete(name string) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return ErrDraining
	}
	t, ok := g.tenants[name]
	if !ok {
		g.mu.Unlock()
		return ErrNotFound
	}
	delete(g.tenants, name)
	g.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.deleted = true
	if t.spilled {
		_ = g.store.Delete(t.name)
		t.spilled = false
	}
	if t.sess != nil {
		g.release(t)
	}
	return nil
}

// TenantInfo is one row of List.
type TenantInfo struct {
	Name     string `json:"name"`
	K        int    `json:"k"`
	P        int    `json:"p"`
	N        int    `json:"n"`
	Dim      int    `json:"dim"`
	Workers  int    `json:"workers"`
	Resident bool   `json:"resident"`
	Spilled  bool   `json:"spilled"`
	Lost     bool   `json:"lost"`
	Bytes    int64  `json:"bytes"`
	Steps    int64  `json:"steps"`
	Evicted  int64  `json:"evictions"`
	Restored int64  `json:"restores"`
}

// List returns all tenants, sorted by name. Purely observational: no
// LRU touch, no restore; counters of a busy tenant are read as of its
// last completed verb.
func (g *Registry) List() []TenantInfo {
	g.mu.Lock()
	ts := make([]*tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		ts = append(ts, t)
	}
	g.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	out := make([]TenantInfo, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.info())
	}
	return out
}

// Info returns one tenant's row of List, with List's semantics (no LRU
// touch, no restore), taking only that tenant's mutex: it never waits
// behind another tenant's in-flight verb.
func (g *Registry) Info(name string) (TenantInfo, error) {
	g.mu.Lock()
	t, ok := g.tenants[name]
	g.mu.Unlock()
	if !ok {
		return TenantInfo{}, ErrNotFound
	}
	return t.info(), nil
}

// info snapshots t's row under t.mu.
func (t *tenant) info() TenantInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TenantInfo{
		Name: t.name, K: t.k, P: t.p, N: t.n, Dim: t.dim,
		Workers:  t.cfg.Lease.Budget(),
		Resident: t.sess != nil, Spilled: t.spilled, Lost: t.lost,
		Bytes: t.bytes, Steps: t.steps,
		Evicted: t.evictions, Restored: t.restores,
	}
}

// RegistryStats is the shared-accounting snapshot of Stats.
type RegistryStats struct {
	Tenants       int   `json:"tenants"`
	Resident      int   `json:"resident"`
	Parked        int   `json:"parked"`
	Lost          int64 `json:"lost"`
	ResidentBytes int64 `json:"resident_bytes"`
	Evictions     int64 `json:"evictions"`
	Restores      int64 `json:"restores"`
	WorkerBudget  int   `json:"worker_budget"`
	Draining      bool  `json:"draining"`
}

// Stats snapshots the registry's shared accounting.
func (g *Registry) Stats() RegistryStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := RegistryStats{
		Tenants:       len(g.tenants),
		Lost:          g.lostCount,
		ResidentBytes: g.residentBytes,
		Evictions:     g.evictions,
		Restores:      g.restores,
		WorkerBudget:  g.pool.Capacity(),
		Draining:      g.draining,
	}
	for _, t := range g.tenants {
		if t.resident {
			st.Resident++
		} else {
			st.Parked++
		}
	}
	return st
}

// Drain rejects all further verbs (ErrDraining), waits for every
// in-flight verb to complete, parks every resident tenant's state to
// the store (best-effort — a tenant whose checkpoint or spill write
// fails is released without one), and releases all sessions — the
// graceful-shutdown half the HTTP server calls after it stops
// accepting connections. With a disk store the spills survive the
// process: the next daemon's Recover re-registers them. Returns how
// many tenants it parked. Idempotent (later calls park nothing).
func (g *Registry) Drain() int {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return 0
	}
	g.draining = true
	ts := make([]*tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		ts = append(ts, t)
	}
	g.mu.Unlock()

	parked := 0
	for _, t := range ts {
		t.mu.Lock() // waits out the in-flight verb
		if t.sess != nil && !t.deleted {
			if data, err := t.sess.Checkpoint(); err == nil {
				if g.store.Put(t.name, data, t.spillMetaJSON()) == nil {
					t.spilled = true
					parked++
				}
			}
			g.release(t)
		}
		t.deleted = true
		t.mu.Unlock()
	}
	g.mu.Lock()
	clear(g.tenants)
	g.mu.Unlock()
	return parked
}

// Recover scans the registry's store and registers a parked tenant for
// every surviving spill — the crash-recovery half cmd/geographerd runs
// at startup over its -spill-dir. Each recovered tenant is registered
// cold (parked, LRU-oldest) and restores on first touch; its session
// configuration is rebuilt from the spill's metadata record exactly as
// Create built it, so the restored chain is bit-identical to the one
// the dead process was running. Spills the store quarantines during
// the scan, spills with undecodable metadata, and names already
// registered are skipped. Returns how many tenants were registered.
func (g *Registry) Recover() (int, error) {
	entries, err := g.store.List()
	if err != nil {
		return 0, fmt.Errorf("serve: recover: %w", err)
	}
	n := 0
	for _, e := range entries {
		var m spillMeta
		if err := json.Unmarshal(e.Meta, &m); err != nil {
			continue
		}
		cfg, p, err := TenantOptions{
			K: m.K, Processes: m.P, Workers: m.Workers,
			Epsilon: m.Epsilon, Seed: m.Seed,
		}.config(m.N)
		if err != nil || p != m.P || m.N < 1 || m.Dim < 1 {
			continue
		}
		cfg.Lease = g.pool.Lease(m.Workers)
		t := &tenant{
			name: e.Key, k: m.K, p: p, workers: m.Workers, cfg: cfg,
			n: m.N, dim: m.Dim,
			bytes:   residentBytesEstimate(m.N, m.Dim, m.K, p),
			spilled: true,
			steps:   m.Steps,
		}
		g.mu.Lock()
		if g.draining {
			g.mu.Unlock()
			return n, ErrDraining
		}
		if _, ok := g.tenants[e.Key]; ok {
			g.mu.Unlock()
			continue
		}
		g.tenants[e.Key] = t
		g.mu.Unlock()
		n++
	}
	return n, nil
}
