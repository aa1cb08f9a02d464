package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"geographer/internal/mesh"
	"geographer/internal/metrics"
	"geographer/internal/mpi"
	"geographer/internal/repart"
)

// chaosP is the rank count of the chaos chains (the fault schedule
// names ranks, so it is fixed rather than scaled).
const chaosP = 4

// chaosSteps is the number of perturbed warm steps each chain runs.
const chaosSteps = 5

// ChaosRow is one timestep of the chaos experiment: a warm
// repartitioning chain driven through Session.RepartitionWithRetry
// under a deterministic fault schedule, compared step by step against
// the identical fault-free chain.
type ChaosRow struct {
	Graph string
	Step  int
	K, P  int

	// Retries is how many retries this step needed
	// (0 = no fault fired during it); FiredTotal is the cumulative
	// number of faults the schedule has fired up to and including this
	// step.
	Retries    int
	FiredTotal int64

	// Identical reports that this step's partition is bit-identical to
	// the fault-free chain's — the recovery guarantee under test.
	Identical bool

	PreImbalance   float64
	MigratedWeight float64
	DistCalcs      int64

	// Seconds is the chaos step's wall time (failed attempts, backoff and
	// the successful attempt); RefSeconds is the fault-free
	// chain's time for the same step. The difference is the recovery
	// overhead, i.e. the wasted work.
	Seconds    float64
	RefSeconds float64
}

// ChaosCell is the per-workload summary of a chaos run. The fields
// chaosReport lists as strict are exact functions of the workload and
// the fault schedule and must reproduce bit-for-bit run to run; the
// wall-clock fields are machine-dependent.
type ChaosCell struct {
	Graph string `json:"graph"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	P     int    `json:"p"`
	Steps int    `json:"steps"`

	FaultsScheduled int   `json:"faults_scheduled"`
	FaultsFired     int64 `json:"faults_fired"`
	// Recoveries sums the retry cycles across all steps; every fired
	// abort fault must be recovered, so Recoveries == FaultsFired on a
	// healthy run.
	Recoveries int   `json:"recoveries"`
	Delays     int64 `json:"delays"`
	// Identical is the acceptance criterion: every step of the chaos
	// chain produced a partition bit-identical to the fault-free chain.
	Identical bool  `json:"identical"`
	DistCalcs int64 `json:"dist_calcs"`
	Cut       int64 `json:"cut"`
	// Imbalance is measured after the final step.
	Imbalance float64 `json:"imbalance"`

	WallSec    float64 `json:"wall_sec"`     // chaos chain, all steps
	RefWallSec float64 `json:"ref_wall_sec"` // fault-free chain, all steps
	WastedSec  float64 `json:"wasted_sec"`   // WallSec - RefWallSec
}

// chaosReport is the BENCH_chaos.json header (see Report).
var chaosReport = Report[ChaosCell]{
	Schema: "geographer-chaos/v1",
	Key:    []string{"graph", "n", "k", "p", "steps"},
	Strict: []string{"faults_scheduled", "faults_fired", "recoveries", "delays", "identical", "dist_calcs", "cut", "imbalance"},
}

// check is the headline invariant of a finished cell: zero hangs is
// implied by having finished; every step must be bit-identical to the
// fault-free chain and every fired fault recovered.
func (c ChaosCell) check() error {
	if !c.Identical {
		return fmt.Errorf("%s: chaos chain diverged from the fault-free chain", c.Graph)
	}
	if c.Recoveries != int(c.FaultsFired) {
		return fmt.Errorf("%s: %d faults fired but %d recoveries", c.Graph, c.FaultsFired, c.Recoveries)
	}
	return nil
}

// chaosPlan is the fault schedule: four single-shot transient faults on
// distinct ranks at increasing collective episodes, plus one injected
// delay. Episodes count per rank per world and the schedule is explicit
// — no clock, no global randomness — so every run fails (and recovers)
// identically. Each transient abort kills the world at its first armed
// episode, the session heals onto a rebuilt world and the retry driver
// replays the step, and the rebuilt world walks into the next armed
// episode; four faults therefore cost
// four recoveries regardless of how the episodes fall across steps.
func chaosPlan() *mpi.FaultPlan {
	return mpi.NewFaultPlan(
		mpi.Fault{Rank: 1, Episode: 2, Kind: mpi.FaultTransient, Fires: 1},
		mpi.Fault{Rank: 2, Episode: 30, Kind: mpi.FaultTransient, Fires: 1},
		mpi.Fault{Rank: 3, Episode: 60, Kind: mpi.FaultTransient, Fires: 1},
		mpi.Fault{Rank: 0, Episode: 90, Kind: mpi.FaultTransient, Fires: 1},
		mpi.Fault{Rank: 1, Episode: 120, Kind: mpi.FaultDelay, Delay: time.Millisecond},
	)
}

// runChaosCell runs one workload: a fault-free reference chain and a
// chaos chain that starts from the same cold partition (transferred by
// checkpoint onto a fault-injected world) and steps through
// RepartitionWithRetry. Every step is compared bit-for-bit.
func runChaosCell(w io.Writer, kind string, n, k int) ([]ChaosRow, ChaosCell, error) {
	cell := ChaosCell{Graph: kind, K: k, P: chaosP, Steps: chaosSteps}
	m, err := mesh.Generate(kind, n, 42)
	if err != nil {
		return nil, cell, err
	}
	cell.N = m.N()
	cfg := seededConfig()
	ps0 := atStep(m, 0)

	// Fault-free reference chain, computed up front.
	ref, err := runChain(ps0.Clone(), k, chaosP, cfg, nil, chaosSteps, func(t int) []float64 {
		return perturbedWeights(m, t)
	})
	if err != nil {
		return nil, cell, fmt.Errorf("reference: %w", err)
	}

	// Chaos chain: identical cold start on a clean world, then the state
	// moves by checkpoint onto a fault-injected world. The session
	// rebuilds each broken world with its hooks, so the schedule stays
	// armed across world rebuilds and transient faults disarm exactly
	// once.
	seed, err := repart.NewSession(mpi.NewWorld(chaosP), ps0.Clone(), k, cfg)
	if err != nil {
		return nil, cell, err
	}
	if _, err := seed.Partition(); err != nil {
		seed.Close()
		return nil, cell, err
	}
	ckpt, err := seed.Checkpoint()
	seed.Close()
	if err != nil {
		return nil, cell, err
	}
	plan := chaosPlan()
	cell.FaultsScheduled = 4 // abort faults; the delay does not abort
	fw := mpi.NewWorld(chaosP)
	fw.SetHooks(plan)
	vic, err := repart.NewSessionFromCheckpoint(fw, ckpt, cfg)
	if err != nil {
		return nil, cell, err
	}
	defer vic.Close()

	policy := repart.RetryPolicy{MaxRetries: 8, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	fmt.Fprintf(w, "\n%-10s n=%d k=%d p=%d: %d abort faults scheduled over %d warm steps\n",
		kind, cell.N, k, chaosP, cell.FaultsScheduled, chaosSteps)
	fmt.Fprintf(w, "%4s %8s %8s %11s %12s %10s %10s %6s\n",
		"step", "retries", "fired", "pre_imbal", "migrated_w", "wall[s]", "ref[s]", "ident")

	var rows []ChaosRow
	cell.Identical = true
	var last []int32
	for t := 1; t <= chaosSteps; t++ {
		t0 := time.Now()
		if err := vic.UpdateWeights(perturbedWeights(m, t)); err != nil {
			return nil, cell, err
		}
		part, st, acted, err := vic.RepartitionWithRetry(context.Background(), 0, policy)
		if err != nil {
			return nil, cell, fmt.Errorf("chaos step %d: %w", t, err)
		}
		chaosSecs, refSecs := time.Since(t0).Seconds(), ref.StepSec[t-1]
		if !acted {
			return nil, cell, fmt.Errorf("chaos step %d did not act", t)
		}
		identical := sameAssign(part.Assign, ref.Assign[t])
		cell.Identical = cell.Identical && identical
		row := ChaosRow{
			Graph: kind, Step: t, K: k, P: chaosP,
			Retries: st.Retries, FiredTotal: plan.Fired(),
			Identical:    identical,
			PreImbalance: st.PreImbalance, MigratedWeight: st.MigratedWeight,
			DistCalcs: st.Info.DistCalcs,
			Seconds:   chaosSecs, RefSeconds: refSecs,
		}
		rows = append(rows, row)
		cell.Recoveries += st.Retries
		cell.DistCalcs += st.Info.DistCalcs
		cell.WallSec += chaosSecs
		cell.RefWallSec += refSecs
		last = part.Assign
		id := "yes"
		if !identical {
			id = "NO"
		}
		fmt.Fprintf(w, "%4d %8d %8d %11.4f %12.1f %10.4f %10.4f %6s\n",
			t, row.Retries, row.FiredTotal, row.PreImbalance, row.MigratedWeight, row.Seconds, row.RefSeconds, id)
	}
	cell.FaultsFired = plan.Fired()
	cell.Delays = plan.Delayed()
	cell.WastedSec = cell.WallSec - cell.RefWallSec

	rep, err := metrics.Evaluate(m.G, atStep(m, chaosSteps), last, k)
	if err != nil {
		return nil, cell, err
	}
	cell.Cut, cell.Imbalance = rep.EdgeCut, rep.Imbalance
	fmt.Fprintf(w, "summary %s: %d/%d scheduled faults fired, %d recoveries, %d delay stalls; partitions bit-identical to fault-free chain: %v; wasted %.4fs of %.4fs total (fault-free chain: %.4fs)\n",
		kind, cell.FaultsFired, int64(cell.FaultsScheduled), cell.Recoveries, cell.Delays,
		cell.Identical, cell.WastedSec, cell.WallSec, cell.RefWallSec)
	return rows, cell, nil
}

// Chaos runs the fault-injection experiment (DESIGN.md,
// "Fault-tolerance invariants"): for each dynamic workload, a warm
// repartitioning chain is driven through the retry driver while a
// deterministic fault schedule kills ranks mid-collective, and every
// step's partition is compared bit-for-bit against the identical
// fault-free chain. A healthy run recovers every
// fired fault (Recoveries == FaultsFired), never hangs, and stays
// bit-identical; the wasted wall time is the price of recovery. A
// finished run that is not healthy returns its rows and report together
// with the first cell's invariant error (see Report).
func Chaos(w io.Writer, sc Scale) ([]ChaosRow, Report[ChaosCell], error) {
	rep := chaosReport
	fmt.Fprintf(w, "Fault-injected warm repartitioning (retry driver, heal + backoff) vs fault-free chain, %d steps, p=%d\n",
		chaosSteps, chaosP)
	var rows []ChaosRow
	for _, wl := range repartWorkloads(sc) {
		r, cell, err := runChaosCell(w, wl.kind, wl.n, wl.k)
		if err != nil {
			return nil, Report[ChaosCell]{}, fmt.Errorf("chaos %s: %w", wl.kind, err)
		}
		rows = append(rows, r...)
		rep.Cells = append(rep.Cells, cell)
	}
	for _, c := range rep.Cells {
		if err := c.check(); err != nil {
			return rows, rep, err
		}
	}
	return rows, rep, nil
}
