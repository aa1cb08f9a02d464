package geographer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// Session is a long-lived partitioner for workloads that repartition
// repeatedly — the dynamic simulations of the paper's §1, which
// rebalance "when the imbalance exceeds a threshold" as their load
// evolves. Where each one-shot Partition/Repartition call scatters the
// coordinates and rebuilds all distributed state from scratch, a
// Session ingests the point set once at construction and keeps the
// per-rank state (coordinate columns, weights, previous assignment)
// resident, so a chain of T repartitioning steps costs one ingest plus
// T warm k-means phases:
//
//	s, err := geographer.NewSession(coords, 2, weights, geographer.Options{K: 16})
//	defer s.Close()
//	blocks, err := s.Partition()          // cold initial partition
//	for step := range timesteps {
//		err = s.UpdateWeights(newWeights) // load evolved; no re-scatter
//		res, err := s.Repartition()       // warm step: few points migrate
//	}
//
// The partitions are bit-identical to the equivalent sequence of
// one-shot Partition/Repartition calls — the session only removes
// redundant work, never changes results. Only MethodGeographer
// supports sessions (warm starts need the balanced k-means).
//
// Non-finite coordinates and non-finite or negative weights are rejected
// with ErrNonFinite at NewSession, UpdateWeights and UpdateCoords; a
// rejected update leaves the session as it was.
//
// A Session holds memory proportional to the point set until Close. It
// is safe for concurrent use: calls are serialized (each observes a
// consistent state), and a call racing Close deterministically returns
// the closed-session error rather than tearing down state mid-verb.
type Session struct {
	inner *repart.Session
}

// errSessionClosed is what every Session method returns after Close.
var errSessionClosed = fmt.Errorf("geographer: session is closed")

// mapErr rewrites the inner closed-session sentinel into the facade's.
// The inner session owns the closed check and serializes every verb
// against Close. Input rejections need no rewriting: ErrNonFinite is
// the inner sentinel itself.
func mapErr(err error) error {
	if errors.Is(err, repart.ErrClosed) {
		return errSessionClosed
	}
	return err
}

// NewSession ingests a point set for repeated repartitioning: the
// coordinates (flat, len = n·dim, any dim ≥ 1) and weights (nil = unit
// weights) are copied, scattered over opts.Processes simulated ranks,
// and kept resident until Close. Inputs and Options follow Partition;
// Options.Method must be MethodGeographer (or empty), and Options.K may
// not exceed the number of points.
func NewSession(coords []float64, dim int, weights []float64, opts Options) (*Session, error) {
	opts, err := opts.geographerOnly("a session")
	if err != nil {
		return nil, err
	}
	ps, err := pointSet(slices.Clone(coords), dim, slices.Clone(weights))
	if err != nil {
		return nil, err
	}
	inner, err := repart.NewSession(mpi.NewWorld(opts.Processes), ps, opts.K, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// Partition computes the initial partition of the session's points —
// the full cold pipeline, bit-identical to the one-shot Partition with
// the same Options — and installs it as the session's current
// partition, the seed of the next Repartition.
func (s *Session) Partition() ([]int32, error) {
	p, err := s.inner.Partition()
	if err != nil {
		return nil, mapErr(err)
	}
	return p.Assign, nil
}

// Repartition runs one warm repartitioning step from the session's
// current partition (set by Partition, SetPartition, or the previous
// Repartition) against the current weights and coordinates, installs
// the new partition, and reports it with its migration cost. Results
// are bit-identical to the one-shot Repartition given the same inputs;
// only the per-step scatter/ingest work is gone.
func (s *Session) Repartition() (RepartResult, error) {
	p, stats, err := s.inner.Repartition()
	if err != nil {
		return RepartResult{}, mapErr(err)
	}
	return fromStats(p.Assign, stats), nil
}

// RepartitionIfAbove repartitions only when it pays: it measures the
// imbalance of the session's current partition under the current
// weights — coalescing any pending UpdateWeights/UpdateCoords deltas
// costs nothing until a step actually runs — and performs a warm
// repartitioning step only when that imbalance exceeds eps, the
// threshold trigger of the paper's dynamic simulations ("repartition
// when the imbalance exceeds a threshold"). The boolean reports whether
// a step ran: when false, the previous partition is still current and
// the result carries only PreImbalance (the measured imbalance, set on
// both paths), no new assignment. eps must be non-negative; eps 0
// repartitions on any measurable imbalance.
func (s *Session) RepartitionIfAbove(eps float64) (RepartResult, bool, error) {
	p, stats, acted, err := s.inner.RepartitionIfAbove(eps)
	if err != nil {
		return RepartResult{}, false, mapErr(err)
	}
	return fromStats(p.Assign, stats), acted, nil
}

// Imbalance measures the imbalance of the session's current partition
// under the current weights and target fractions (max_b
// weight(b)/target(b) − 1) without running the partitioner — the
// quantity RepartitionIfAbove tests against its threshold. Errors when
// no partition has been computed or installed yet.
func (s *Session) Imbalance() (float64, error) {
	imb, err := s.inner.Imbalance()
	return imb, mapErr(err)
}

// SetPartition installs blocks (one block id in [0, K) per point) as
// the session's current partition without running the partitioner —
// for warm-starting from an assignment computed elsewhere, e.g. a
// checkpoint or another tool. The slice is copied.
func (s *Session) SetPartition(blocks []int32) error {
	return mapErr(s.inner.SetPartition(blocks))
}

// UpdateWeights replaces the point weights (nil = unit weights; length
// must match the point count otherwise). Only the weight columns are
// touched — no coordinates move, nothing is re-scattered. The next
// Repartition balances against the new weights.
func (s *Session) UpdateWeights(weights []float64) error {
	return mapErr(s.inner.UpdateWeights(weights))
}

// UpdateCoords replaces the point coordinates (flat, len = n·dim, same
// n and dim as at construction). Point identity is preserved — this
// models points that moved, not a new point set — so the current
// partition remains a valid warm-start seed.
func (s *Session) UpdateCoords(coords []float64) error {
	return mapErr(s.inner.UpdateCoords(coords))
}

// Blocks returns a copy of the session's current partition, or nil if
// none has been computed or installed yet.
func (s *Session) Blocks() []int32 {
	return s.inner.Blocks()
}

// IngestSeconds reports the one-time cost NewSession paid to scatter
// the points and build the resident per-rank state — the work each
// one-shot Repartition call repeats and a session amortizes across
// steps. Like every read-only accessor it keeps answering after Close.
func (s *Session) IngestSeconds() float64 {
	return s.inner.IngestSeconds()
}

// Close releases the resident per-rank state. Closing twice is a
// no-op. After Close, the nine verbs Partition, Repartition,
// RepartitionIfAbove, RepartitionWithRetry, Imbalance, SetPartition,
// UpdateWeights, UpdateCoords and Checkpoint return the closed-session
// error; the read-only accessors keep answering — Blocks returns nil
// (the partition is released) and IngestSeconds its recorded value.
// Close waits for an in-flight verb to finish rather than releasing
// state out from under it.
func (s *Session) Close() error {
	return s.inner.Close()
}

// Checkpoint serializes the session's complete restorable state — the
// current coordinates and weights (pending deltas included), the
// installed partition, and for every rank its bounding box and carried
// incremental k-means bounds — into a self-describing, versioned binary
// blob. Each point is stored once: a restore rebuilds every rank's
// resident columns from the stored point set, the way the session's
// ingest built them. The call is purely local (no simulated
// communication) and does not disturb the session;
// NewSessionFromCheckpoint rebuilds an equivalent session whose next
// warm step is bit-identical to the step this session would run,
// including the incremental fast path.
//
// The Options are NOT embedded: pass the same Options to
// NewSessionFromCheckpoint that this session was built with (options
// hold policy, checkpoints hold state).
func (s *Session) Checkpoint() ([]byte, error) {
	data, err := s.inner.Checkpoint()
	return data, mapErr(err)
}

// NewSessionFromCheckpoint rebuilds a session from Checkpoint bytes.
// opts must repeat the Options of the checkpointed session; as a
// convenience, a zero opts.K and a zero opts.Processes are filled from
// the checkpoint header (a non-zero value must match it — restoring
// onto a different rank count or block count is an error, not a
// resharding operation). Corrupted, truncated, or wrong-version data is
// rejected with a descriptive error; it never panics.
func NewSessionFromCheckpoint(data []byte, opts Options) (*Session, error) {
	info, err := repart.ReadCheckpointInfo(data)
	if err != nil {
		return nil, fmt.Errorf("geographer: restore: %w", err)
	}
	if opts.K == 0 {
		opts.K = info.K
	}
	if opts.Processes == 0 {
		opts.Processes = info.P
	}
	opts, err = opts.geographerOnly("a session")
	if err != nil {
		return nil, err
	}
	if opts.K != info.K {
		return nil, fmt.Errorf("geographer: restore with K=%d, checkpoint has %d blocks", opts.K, info.K)
	}
	if opts.Processes != info.P {
		return nil, fmt.Errorf("geographer: restore with Processes=%d, checkpoint has %d ranks", opts.Processes, info.P)
	}
	inner, err := repart.NewSessionFromCheckpoint(mpi.NewWorld(info.P), data, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// RetryPolicy bounds the fault-recovery loop of
// Session.RepartitionWithRetry. The zero value is usable: 3 retries,
// 10ms base backoff doubling to a 1s cap, real sleeping.
type RetryPolicy struct {
	// MaxRetries is how many retries may follow a failed first attempt
	// (<=0 means 3).
	MaxRetries int
	// BaseBackoff is the pause before the first retry (<=0 means 10ms);
	// it doubles per retry up to MaxBackoff (<=0 means 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep implements the backoff pause; tests substitute a recorder.
	// Nil means time.Sleep.
	Sleep func(time.Duration)
}

// RepartitionWithRetry is RepartitionIfAbove under fault tolerance: it
// runs the threshold-triggered warm step cancellable through ctx, and —
// if the simulated runtime aborts (a rank failure mid-collective) —
// backs off and runs the step again, up to policy.MaxRetries times. An
// aborted step leaves the session as it was before it, on a rebuilt
// runtime, and warm steps are deterministic functions of that state, so
// the partition a successful retry produces is bit-identical to what a
// fault-free step would have computed; RepartResult.Retries reports how
// many retries were needed. Cancellation through ctx is terminal: the
// attempt is not retried — a cancel mid-step returns the abort error
// (wrapping the context's cause), a context cancelled before the step
// its cause alone — and the session stays usable. Argument errors are
// returned immediately without retrying.
func (s *Session) RepartitionWithRetry(ctx context.Context, eps float64, policy RetryPolicy) (RepartResult, bool, error) {
	p, stats, acted, err := s.inner.RepartitionWithRetry(ctx, eps, repart.RetryPolicy{
		MaxRetries:  policy.MaxRetries,
		BaseBackoff: policy.BaseBackoff,
		MaxBackoff:  policy.MaxBackoff,
		Sleep:       policy.Sleep,
	})
	if err != nil {
		return RepartResult{}, false, mapErr(err)
	}
	return fromStats(p.Assign, stats), acted, nil
}
