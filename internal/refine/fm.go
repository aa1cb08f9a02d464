// Package refine implements a graph-based local refinement pass in the
// spirit of Fiduccia–Mattheyses. The paper notes (§2) that "a graph-based
// postprocessing, for example based on the Fiduccia-Mattheyses local
// refinement heuristic is easily possible, but outside the scope of this
// paper" — this package is that extension: it polishes a geometric
// partition by moving boundary vertices with positive edge-cut gain while
// keeping the ε balance constraint.
package refine

import (
	"container/heap"
	"fmt"

	"geographer/internal/geom"
	"geographer/internal/graph"
	"geographer/internal/metrics"
	"geographer/internal/partition"
)

// Options controls the refinement.
type Options struct {
	Epsilon   float64 // balance slack kept during refinement (default 0.03)
	MaxPasses int     // passes over the boundary (default 3)
}

// DefaultOptions matches the paper's balance setting.
func DefaultOptions() Options { return Options{Epsilon: 0.03, MaxPasses: 3} }

// Result reports what the refinement achieved.
type Result struct {
	Passes    int
	Moves     int
	CutBefore int64
	CutAfter  int64
}

// move candidates are ordered by gain (max-heap).
type cand struct {
	v    int32
	to   int32
	gain int
}

type candHeap []cand

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(cand)) }
func (h *candHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Refine improves the edge cut of part in place. Vertices are moved one
// at a time, highest gain first, only when the move keeps every block
// within (1+ε) of its average weight. Gains are recomputed lazily (stale
// heap entries are validated on pop), which keeps the implementation
// simple and the passes strictly cut-monotone.
func Refine(g *graph.Graph, ps *geom.PointSet, part []int32, k int, opts Options) (Result, error) {
	if ps.Len() != g.N {
		return Result{}, fmt.Errorf("refine: %d points for %d graph vertices", ps.Len(), g.N)
	}
	if err := partition.Check(part, g.N, k); err != nil {
		return Result{}, err
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 0.03
	}
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 3
	}

	weights := metrics.BlockWeights(ps, part, k)
	maxLoad := (1 + opts.Epsilon) * ps.TotalWeight() / float64(k)

	res := Result{CutBefore: metrics.EdgeCut(g, part)}

	// neighborBlocks(v) returns the count of v's edges into each adjacent
	// block, using a small epoch-stamped scratch.
	stamp := make([]int32, k)
	count := make([]int, k)
	for i := range stamp {
		stamp[i] = -1
	}
	epoch := int32(0)
	bestMove := func(v int32) (cand, bool) {
		epoch++
		own := part[v]
		ownEdges := 0
		var blocks []int32
		for _, u := range g.Neighbors(v) {
			b := part[u]
			if b == own {
				ownEdges++
				continue
			}
			if stamp[b] != epoch {
				stamp[b] = epoch
				count[b] = 0
				blocks = append(blocks, b)
			}
			count[b]++
		}
		best := cand{v: v, gain: 0}
		found := false
		for _, b := range blocks {
			gain := count[b] - ownEdges
			if gain > best.gain || (!found && gain > 0) {
				if weights[b]+ps.W(int(v)) <= maxLoad {
					best = cand{v: v, to: b, gain: gain}
					found = true
				}
			}
		}
		return best, found && best.gain > 0
	}

	for pass := 0; pass < opts.MaxPasses; pass++ {
		res.Passes++
		h := &candHeap{}
		for v := 0; v < g.N; v++ {
			if c, ok := bestMove(int32(v)); ok {
				heap.Push(h, c)
			}
		}
		moves := 0
		for h.Len() > 0 {
			c := heap.Pop(h).(cand)
			// Validate: the stored gain may be stale after nearby moves.
			fresh, ok := bestMove(c.v)
			if !ok {
				continue
			}
			if fresh.gain < c.gain {
				heap.Push(h, fresh) // re-queue with the corrected gain
				continue
			}
			// Apply the move.
			from := part[c.v]
			weights[from] -= ps.W(int(c.v))
			weights[fresh.to] += ps.W(int(c.v))
			part[c.v] = fresh.to
			moves++
			// Neighbors' gains changed; re-offer them.
			for _, u := range g.Neighbors(c.v) {
				if cu, ok := bestMove(u); ok {
					heap.Push(h, cu)
				}
			}
		}
		res.Moves += moves
		if moves == 0 {
			break
		}
	}
	res.CutAfter = metrics.EdgeCut(g, part)
	return res, nil
}
