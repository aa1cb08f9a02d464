package repart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"geographer/internal/core"
	"geographer/internal/geom"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// ErrClosed is returned by every Session method called after Close.
var ErrClosed = fmt.Errorf("repart: session is closed")

// Session is a long-lived partitioner for repeated repartitioning: the
// point set is scattered and ingested into per-rank resident SoA state
// (core.Resident) exactly once, and every subsequent Repartition call
// runs only the warm balanced k-means phase on the resident columns —
// no re-scatter, no SFC sort, no per-point allocations. Weight and
// coordinate deltas are applied in place with UpdateWeights and
// UpdateCoords.
//
// This is the streaming timestep shape the paper motivates geometric
// partitioners with (§1: a simulation repartitions "when the imbalance
// exceeds a threshold"): a T-step chain costs one ingest plus T warm
// k-means phases, where the one-shot Repartition chain pays the ingest
// every step.
//
// Determinism: a Session chain is bit-identical to the equivalent chain
// of one-shot Repartition calls (which are themselves implemented on
// top of Session) — warm steps reduce through internal/exact, so the
// output does not depend on rank layout, worker count, or whether the
// state was freshly ingested or resident (DESIGN.md, "Session
// invariants"; pinned by TestSessionMatchesOneShotChain).
//
// A Session serializes its own calls: concurrent use from several
// goroutines is memory-safe and each call observes a consistent state
// (in particular, a call racing Close gets a deterministic ErrClosed,
// never a partially-released resident). The simulated ranks inside one
// call still run concurrently; serialization is only across Session
// verbs.
//
// A session outlives its world: a verb whose run breaks the world (a
// rank panic, an injected fault, a cancelled context) returns the abort
// (mpi.ErrBroken) and leaves the session as it was before the verb, on a
// rebuilt world (healLocked; DESIGN.md, "Fault-tolerance invariants").
type Session struct {
	mu sync.Mutex

	w   *mpi.World
	ps  *geom.PointSet
	k   int
	cfg core.Config

	res  []*core.Resident // per-rank resident state, indexed by rank
	prev []int32          // most recent partition (session-owned copy)

	// Pending-delta coalescing: UpdateWeights/UpdateCoords only record
	// the new values on s.ps; the per-rank resident columns are
	// refreshed lazily by flush() right before the next warm step. Any
	// number of updates between two steps therefore costs at most one
	// pass over the resident columns and one collective bounding-box
	// recompute.
	weightsDirty bool
	coordsDirty  bool

	ingestSeconds float64
	lastInfo      core.Info
	closed        bool
}

// NewSession scatters ps over the simulated world w and ingests it into
// resident per-rank state. A session has at most one block per point: k
// above ps.Len() is an error. The Session takes ownership of both: w must
// not run other work between session calls, and the caller must not
// mutate ps afterwards (the facade clones caller slices before handing
// them over; UpdateWeights and UpdateCoords replace, never share, the
// stored slices).
func NewSession(w *mpi.World, ps *geom.PointSet, k int, cfg core.Config) (*Session, error) {
	return NewSessionCtx(nil, w, ps, k, cfg)
}

// NewSessionCtx is NewSession under a context: cancelling ctx while the
// ingest runs aborts it, and NewSessionCtx returns the abort
// (mpi.ErrBroken) and no session, with w left broken; a context
// cancelled before the ingest returns its cause, w unbroken. A nil
// context behaves exactly like NewSession.
func NewSessionCtx(ctx context.Context, w *mpi.World, ps *geom.PointSet, k int, cfg core.Config) (*Session, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	if ps.Len() == 0 {
		return nil, fmt.Errorf("repart: empty point set")
	}
	if k > ps.Len() {
		return nil, fmt.Errorf("repart: k=%d exceeds the %d points", k, ps.Len())
	}
	if err := cfg.Validate(k); err != nil {
		return nil, err
	}
	s := &Session{
		w:   w,
		ps:  ps,
		k:   k,
		cfg: cfg,
		res: make([]*core.Resident, w.Size()),
	}
	t0 := time.Now()
	if err := w.RunCtx(ctx, func(c *mpi.Comm) {
		s.res[c.Rank()] = core.Ingest(c, partition.Scatter(c, ps))
	}); err != nil {
		return nil, err
	}
	s.ingestSeconds = time.Since(t0).Seconds()
	return s, nil
}

// IngestSeconds returns the wall time NewSession spent scattering and
// building the resident columns — the one-time cost every warm step
// amortizes (one-shot Repartition pays it on each call, reported there
// as Stats.IngestSeconds).
func (s *Session) IngestSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestSeconds
}

// LastInfo returns the k-means diagnostics of the most recent
// Partition or Repartition call.
func (s *Session) LastInfo() core.Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastInfo
}

// Blocks returns a copy of the most recent partition, or nil if no
// partition has been computed or installed yet.
func (s *Session) Blocks() []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prev == nil {
		return nil
	}
	return append([]int32(nil), s.prev...)
}

// Partition computes a cold initial partition of the session's point
// set — the full pipeline including the SFC sort/redistribution
// bootstrap, bit-identical to a one-shot partition.Run with the same
// configuration — and installs it as the session's current partition.
func (s *Session) Partition() (partition.P, error) {
	return s.PartitionCtx(nil)
}

// PartitionCtx is Partition under a context: cancellation aborts the
// world mid-verb (mpi.ErrBroken) and leaves the session as it was
// before the verb; a context cancelled before the verb returns its
// cause and breaks nothing. The serving layer threads each HTTP
// request's context here so a disconnected client cancels its verb. A
// nil context behaves exactly like Partition — the context never
// influences the computed partition, only whether it completes.
func (s *Session) PartitionCtx(ctx context.Context) (partition.P, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return partition.P{}, ErrClosed
	}
	bkm := core.New(s.cfg)
	p, err := partition.RunCtx(ctx, s.w, s.ps, s.k, bkm)
	if err != nil {
		return partition.P{}, s.healLocked(err)
	}
	s.lastInfo = bkm.LastInfo()
	s.prev = append(s.prev[:0], p.Assign...)
	return p, nil
}

// SetPartition installs prev as the session's current partition without
// running the partitioner — the entry point for warm-starting from a
// partition computed elsewhere (a previous process, a checkpoint, a
// different tool). The slice is copied.
func (s *Session) SetPartition(prev []int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setPartitionLocked(prev)
}

func (s *Session) setPartitionLocked(prev []int32) error {
	if s.closed {
		return ErrClosed
	}
	if err := partition.Check(prev, s.ps.Len(), s.k); err != nil {
		return fmt.Errorf("repart: invalid partition: %w", err)
	}
	s.prev = append(s.prev[:0], prev...)
	return nil
}

// errNoPartition is the error of a warm step with nothing to start from.
var errNoPartition = fmt.Errorf("repart: no partition to warm-start from; call Partition or SetPartition first")

// Repartition runs one warm repartitioning step from the session's
// current partition and installs the result as the new current
// partition. A partition must exist first (Partition or SetPartition).
func (s *Session) Repartition() (partition.P, Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return partition.P{}, Stats{}, ErrClosed
	}
	if s.prev == nil {
		return partition.P{}, Stats{}, errNoPartition
	}
	return s.repartitionLocked(nil)
}

// repartitionLocked is the warm step: seeded from the centers of s.prev,
// measured against it (migration volume), and installed over it. The
// caller holds s.mu and has checked that s.prev exists; ctx cancels the
// step (nil = not cancellable).
func (s *Session) repartitionLocked(ctx context.Context) (partition.P, Stats, error) {
	if err := s.flushLocked(ctx); err != nil {
		return partition.P{}, Stats{}, err
	}
	centers, err := RecoverCenters(s.ps, s.prev, s.k)
	if err != nil {
		return partition.P{}, Stats{}, err
	}
	bkm := core.New(s.cfg)
	out, err := partition.Gather(ctx, s.w, s.ps.Len(), s.k, bkm.Name(), func(c *mpi.Comm) ([]int64, []int32, error) {
		return bkm.PartitionResident(c, s.res[c.Rank()], s.k, centers)
	})
	if err != nil {
		return partition.P{}, Stats{}, s.healLocked(err)
	}

	st := Stats{TotalWeight: s.ps.TotalWeight(), Info: bkm.LastInfo()}
	if st.MigratedWeight, st.MigratedPoints, err = metrics.MigrationVolume(s.ps, s.prev, out.Assign); err != nil {
		return partition.P{}, Stats{}, err
	}
	s.lastInfo = st.Info
	s.prev = append(s.prev[:0], out.Assign...)
	return out, st, nil
}

// UpdateWeights replaces the point weights (nil = unit weights) without
// re-scattering. The call is validation plus one local copy; the
// per-rank resident weight columns are refreshed lazily before the next
// warm step, so several weight updates between two repartitions coalesce
// into a single resident pass. The next Repartition balances against
// the new weights. A rejected update (wrong length, or a NaN, ±Inf or
// negative weight: geom.ErrNonFinite) leaves the session unchanged.
func (s *Session) UpdateWeights(weights []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// slices.Clone keeps nil (unit weights) apart from empty (wrong length).
	next := &geom.PointSet{Dim: s.ps.Dim, Coords: s.ps.Coords, Weight: slices.Clone(weights)}
	if err := next.Validate(); err != nil {
		return err
	}
	s.ps = next
	s.weightsDirty = true
	return nil
}

// UpdateCoords replaces the point coordinates (flat, len = n·dim)
// without re-scattering. Like UpdateWeights the call only records the
// new values; the resident columns — and the collective bounding-box
// recompute the coordinates demand — are applied lazily before the next
// warm step, at most once regardless of how many updates queued. Point
// identity (and therefore the meaning of the current partition) is
// preserved — this models points that moved, not a new point set. A
// rejected update (wrong length, or a NaN or ±Inf coordinate:
// geom.ErrNonFinite) leaves the session unchanged.
func (s *Session) UpdateCoords(coords []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(coords) != len(s.ps.Coords) {
		return fmt.Errorf("repart: %d coordinates for %d points in %dD", len(coords), s.ps.Len(), s.ps.Dim)
	}
	next := &geom.PointSet{Dim: s.ps.Dim, Coords: slices.Clone(coords), Weight: s.ps.Weight}
	if err := next.Validate(); err != nil {
		return err
	}
	s.ps = next
	s.coordsDirty = true
	return nil
}

// flushLocked applies the pending weight/coordinate deltas to the
// per-rank resident state: one pass over the resident columns and —
// only when coordinates changed — one collective bounding-box recompute
// (which also drops the carried k-means bounds; moved points invalidate
// them). Weight-only deltas are communication-free and keep the carried
// bounds. The recompute is cancellable through ctx (nil = not
// cancellable); an aborted one leaves both flags set, so the next step
// applies the deltas again from the start.
func (s *Session) flushLocked(ctx context.Context) error {
	if s.coordsDirty {
		err := s.w.RunCtx(ctx, func(c *mpi.Comm) {
			r := s.res[c.Rank()]
			r.SetCoordsGlobal(s.ps.Coords)
			if s.weightsDirty {
				r.SetWeightsGlobal(s.ps.Weight)
			}
			r.RecomputeBounds(c)
		})
		if err != nil {
			return s.healLocked(err)
		}
	} else if s.weightsDirty {
		for _, r := range s.res {
			r.SetWeightsGlobal(s.ps.Weight)
		}
	}
	s.weightsDirty, s.coordsDirty = false, false
	return nil
}

// healLocked is the recovery rule, applied to the error of every world
// run. After an abort the session moves to w.Rebuild() (hooks kept) and
// every rank drops its carried bounds, the one state an aborted run can
// leave half-written; everything else a verb reads lives outside the
// ranks and is replaced only on success. err is returned unchanged.
func (s *Session) healLocked(err error) error {
	if errors.Is(err, mpi.ErrBroken) {
		s.w = s.w.Rebuild()
		for _, r := range s.res {
			r.DropCarry()
		}
	}
	return err
}

// Imbalance measures the imbalance of the session's current partition
// under the current (possibly just-updated) weights and target
// fractions: max_b weight(b)/target(b) − 1. Purely local — the session
// holds the global point set — and independent of any pending
// coordinate delta (coordinates don't enter block weights). Errors when
// no partition is installed.
func (s *Session) Imbalance() (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.imbalanceLocked()
}

func (s *Session) imbalanceLocked() (float64, error) {
	if s.prev == nil {
		return 0, fmt.Errorf("repart: no partition to measure; call Partition or SetPartition first")
	}
	w := metrics.BlockWeights(s.ps, s.prev, s.k)
	total := 0.0
	for _, x := range w {
		total += x
	}
	targets, err := partition.Targets(total, s.k, s.cfg.TargetFractions)
	if err != nil {
		return 0, err
	}
	return max(0, partition.MaxLoadRatio(w, targets)-1), nil
}

// RepartitionIfAbove is the paper's §1 trigger verbatim — repartition
// "when the imbalance exceeds a threshold": it measures the imbalance
// of the current partition under the current weights and runs a warm
// repartitioning step only when that exceeds eps, reporting whether it
// acted. When it skips, the pending weight/coordinate deltas stay
// queued (measuring costs no resident work at all) and the current
// partition remains installed; the measured imbalance is returned in
// Stats.PreImbalance either way.
func (s *Session) RepartitionIfAbove(eps float64) (partition.P, Stats, bool, error) {
	return s.RepartitionIfAboveCtx(nil, eps)
}

// RepartitionIfAboveCtx is RepartitionIfAbove under a context (see
// PartitionCtx).
func (s *Session) RepartitionIfAboveCtx(ctx context.Context, eps float64) (partition.P, Stats, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return partition.P{}, Stats{}, false, ErrClosed
	}
	return s.repartitionIfAboveLocked(ctx, eps)
}

func (s *Session) repartitionIfAboveLocked(ctx context.Context, eps float64) (partition.P, Stats, bool, error) {
	if s.prev == nil {
		return partition.P{}, Stats{}, false, errNoPartition
	}
	if eps < 0 || math.IsNaN(eps) {
		return partition.P{}, Stats{}, false, fmt.Errorf("repart: threshold eps=%g", eps)
	}
	imb, err := s.imbalanceLocked()
	if err != nil {
		return partition.P{}, Stats{}, false, err
	}
	if imb <= eps {
		return partition.P{}, Stats{PreImbalance: imb}, false, nil
	}
	p, st, err := s.repartitionLocked(ctx)
	st.PreImbalance = imb
	return p, st, err == nil, err
}

// Close releases the resident state. Closing an already-closed session
// is a no-op. After Close, every mutating method (Partition,
// Repartition, RepartitionIfAbove, SetPartition, UpdateWeights,
// UpdateCoords, Checkpoint, RepartitionWithRetry) and Imbalance
// return ErrClosed; the read-only accessors (IngestSeconds, LastInfo,
// Blocks) keep answering from what remains.
// Close serializes against in-flight calls: it waits for the running
// verb to finish rather than releasing state out from under it.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.res = nil
	s.prev = nil
	return nil
}
