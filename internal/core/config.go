// Package core implements the paper's contribution: weighted balanced
// k-means for mesh partitioning (§4), the algorithm behind Geographer.
//
// The implementation follows Algorithms 1 and 2 of the paper:
//
//   - bootstrap: global sort and redistribution of the points by their
//     Hilbert space-filling curve index (§4.1), initial centers placed at
//     equal distances along the curve (Algorithm 2, line 7);
//   - balancing: per-cluster influence values dividing the distance in
//     the assignment step (weighted Voronoi diagrams, §4.2), adapted by
//     Eq. (1) with a ±5% cap per step, plus the sigmoid influence erosion
//     of Eqs. (2)–(3) after center movements;
//   - geometric optimizations: Hamerly-style distance bounds carried in
//     effective-distance space (§4.3, Eqs. (4)–(5) with the signs
//     corrected, see DESIGN.md), and pruning of far clusters against the
//     bounding box of the process-local points (§4.4);
//   - sampled initialization: the first rounds run on a doubling random
//     sample of the local points (§4.5, "random initialization").
//
// Everything runs SPMD over the simulated MPI runtime; cluster centers
// and influence values are replicated, points are distributed (§4.1).
package core

import (
	"fmt"

	"geographer/internal/partition"
	"geographer/internal/sched"
)

// Config collects the tuning parameters of balanced k-means. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// Epsilon is the maximum allowed imbalance ε: every block's weight
	// must be at most (1+ε)·target. The paper evaluates ε ∈ {0.03, 0.05}.
	Epsilon float64

	// MaxIter bounds the outer center-movement iterations (Algorithm 2).
	MaxIter int

	// MaxBalanceIter bounds the influence-adaptation rounds between two
	// center movements (Algorithm 1; "a tuning parameter", §4.2). While
	// any rank is still sampling (SampledInit) in a run without
	// SFCBootstrap, a call stops after sampledBalanceRounds = 8 rounds
	// instead.
	MaxBalanceIter int

	// Erosion enables the sigmoid influence erosion after center movement
	// (Eqs. (2)–(3)); disable only for ablation studies.
	Erosion bool

	// Bounds selects the distance-bound acceleration (§4.3 / §3.3):
	// BoundsHamerly (the paper's choice: one upper + one lower bound per
	// point), BoundsElkan (k lower bounds per point: fewer distance
	// evaluations, O(n·k) memory — the alternative the paper rejects for
	// its memory cost at large k), or BoundsNone.
	Bounds BoundsKind

	// BBoxPruning enables the bounding-box cluster pruning of §4.4.
	BBoxPruning bool

	// SampledInit enables the doubling-sample initialization rounds of
	// cold runs. It is the one thing that ties a cold run's output to
	// the rank layout: the sample is shuffled with rank-seeded streams
	// and its weights are summed in float. With it off, every global
	// float reduction (total weight, per-block weights, center sums)
	// runs through the order-independent exact accumulators of
	// internal/exact, as on the warm path, and the output is
	// bit-identical across every rank and worker layout. Warm runs never
	// sample.
	SampledInit bool

	// SFCBootstrap enables the space-filling-curve sort/redistribution and
	// curve-spaced initial centers. When false, points stay in input
	// distribution and initial centers are drawn uniformly at random — the
	// configuration the paper argues against; kept for ablations.
	SFCBootstrap bool

	// TargetFractions optionally gives non-uniform per-block target
	// weights (paper footnote 1); nil means uniform.
	TargetFractions []float64

	// Strict makes ε a hard guarantee: after convergence, extra
	// balance-only rounds (with a growing influence cap) run until the
	// partition fits ε. Off by default, matching the paper's setup where
	// balance "was always achieved" with enough iterations.
	Strict bool

	// Workers sets the intra-rank shard count of the assignment kernels:
	// when the host has more cores than the simulated world has ranks,
	// each rank splits its sample across this many concurrent kernel
	// shards (merged before the one collective per balance round, so the
	// paper's communication structure is unchanged). 0 picks
	// Lease.Budget()/worldSize automatically (floored at 1); 1 forces
	// the serial kernel.
	Workers int

	// Lease is the worker budget the intra-rank fan-outs (assignment
	// kernel shards, batch Hilbert keys) draw helper tokens from. Nil
	// selects a full-capacity lease on the process-wide default pool
	// (sched.Default, sized to GOMAXPROCS) — the single-tenant
	// behavior. A multi-tenant host (internal/serve) gives every
	// session its own lease so concurrent sessions cannot oversubscribe
	// the machine; the lease is execution policy, not problem state —
	// it never affects output (DESIGN.md, "Multi-tenancy invariants")
	// and is not part of checkpoints.
	Lease *sched.Lease

	// Seed drives the sampled-initialization permutations and random
	// center placement in non-SFC mode.
	Seed int64
}

// deltaThreshold stops the outer loop once the maximum center movement
// falls below deltaThreshold × (global bounding box diagonal).
const deltaThreshold = 2e-3

// influenceCap limits the relative influence change per balance round
// ("we restrict the maximum influence change in one step to 5%").
const influenceCap = 0.05

// sampledBalanceRounds caps the balance rounds of a call while any rank
// is still sampling (§4.5) in a run without the curve bootstrap: from
// random seeds the sampled iterations almost never balance, and rounds
// past the first few only drag the centers about before the sample
// doubles. With the bootstrap the rounds pay for themselves later
// (DESIGN.md, "Sampled iterations stop after eight rounds").
const sampledBalanceRounds = 8

// BoundsKind selects the distance-bound strategy of the assignment loop.
type BoundsKind string

// The supported bound strategies.
const (
	BoundsHamerly BoundsKind = "hamerly" // paper §4.3 (default)
	BoundsElkan   BoundsKind = "elkan"   // per-center lower bounds (§3.3)
	BoundsNone    BoundsKind = "none"    // plain Lloyd assignment
)

// Validate checks the parts of a configuration whose violation would
// otherwise fail silently or crash mid-run: a negative or NaN ε makes
// the balance check `imb <= Epsilon` unsatisfiable (every k-means
// iteration would burn all MaxBalanceIter rounds for nothing), a
// negative Workers count would silently mean "auto", an unknown Bounds
// kind would run plain Lloyd while the next warm run claims carried
// bounds it never kept, and ill-formed target fractions skew the
// balance targets. An empty Bounds is accepted only on a zero-value
// configuration (MaxIter 0), whose knobs normalized fills.
func (cfg Config) Validate(k int) error {
	if k < 1 {
		return fmt.Errorf("core: k=%d", k)
	}
	if !(cfg.Epsilon >= 0) {
		return fmt.Errorf("core: Epsilon=%g is negative or NaN (the imbalance bound can never be met)", cfg.Epsilon)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("core: Workers=%d (0 = auto, 1 = serial)", cfg.Workers)
	}
	switch cfg.Bounds {
	case BoundsHamerly, BoundsElkan, BoundsNone:
	default:
		if cfg.Bounds != "" || cfg.MaxIter != 0 {
			return fmt.Errorf("core: Bounds=%q (want %q, %q or %q)", cfg.Bounds, BoundsHamerly, BoundsElkan, BoundsNone)
		}
	}
	if cfg.TargetFractions != nil {
		if _, err := partition.CheckFractions(cfg.TargetFractions, k); err != nil {
			return err
		}
	}
	return nil
}

// normalized fills the tuning knobs of a zero-value configuration from
// DefaultConfig: the caller did not start from DefaultConfig (MaxIter
// is zero), so the knobs take their defaults — but everything that
// defines the caller's problem (constraints, seeds) is kept rather
// than silently reset. The all-on feature booleans
// (Erosion, BBoxPruning, SampledInit, SFCBootstrap) cannot be
// distinguished from unset here and take their defaults; callers that
// ablate them must set MaxIter explicitly.
func (cfg Config) normalized() Config {
	if cfg.MaxIter != 0 {
		return cfg
	}
	def := DefaultConfig()
	if cfg.Epsilon != 0 {
		def.Epsilon = cfg.Epsilon
	}
	if cfg.Workers != 0 {
		def.Workers = cfg.Workers
	}
	def.Lease = cfg.Lease
	if cfg.Bounds != "" {
		def.Bounds = cfg.Bounds
	}
	def.Seed = cfg.Seed
	def.Strict = cfg.Strict
	def.TargetFractions = cfg.TargetFractions
	return def
}

// DefaultConfig returns the configuration used in the paper's experiments
// (ε = 3%, all optimizations on).
func DefaultConfig() Config {
	return Config{
		Epsilon:        0.03,
		MaxIter:        60,
		MaxBalanceIter: 20,
		Erosion:        true,
		Bounds:         BoundsHamerly,
		BBoxPruning:    true,
		SampledInit:    true,
		SFCBootstrap:   true,
	}
}

// Info reports what happened during one Partition call: phase wall times
// (for the paper's §5.3.2 component breakdown), iteration counts, and the
// effectiveness counters of the geometric optimizations.
type Info struct {
	Iterations    int     // outer (center movement) iterations
	BalanceRounds int     // total inner balance rounds
	Balanced      bool    // final imbalance ≤ ε
	Imbalance     float64 // achieved imbalance

	// Phase wall-clock seconds, measured on rank 0 (§5.3.2: "initial
	// partition with a Hilbert curve, the redistribution of coordinates
	// ... and finally the balanced k-means itself").
	SFCSeconds    float64
	SortSeconds   float64
	KMeansSeconds float64

	// Optimization effectiveness (the paper reports ~80% of inner loops
	// skipped by the distance bounds, §4.3).
	DistCalcs    int64 // full point-center distance evaluations
	HamerlySkips int64 // points whose inner loop was skipped entirely
	BBoxBreaks   int64 // inner loops cut short by the box order or an anchored rescan's triangle bound
	Visits       int64 // point visits of the assignment passes (skipped or not)

	// Warm repartitioning with bounds carried across PartitionResident
	// runs (session steps after the first warm one).
	CarriedBounds  bool    // every rank reused the previous warm run's bounds
	BoundaryPoints int64   // points the first pass had to examine (global)
	BoundaryFrac   float64 // BoundaryPoints / global n
}

// SkipRate returns the fraction of point visits resolved by the Hamerly
// bounds alone — the per-run counterpart of the paper's §4.3 "innermost
// loop can be skipped in about 80% of the cases".
func (in Info) SkipRate() float64 {
	if in.Visits == 0 {
		return 0
	}
	return float64(in.HamerlySkips) / float64(in.Visits)
}
