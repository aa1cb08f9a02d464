// Package metrics evaluates partition quality with the graph-based
// measures of the paper (§2, §5.2.4): edge cut, external edges, maximum
// and total communication volume, imbalance, and per-block diameters
// (BFS-based iFUB-style lower bounds aggregated with the harmonic mean).
package metrics

import (
	"fmt"
	"math"

	"geographer/internal/geom"
	"geographer/internal/graph"
	"geographer/internal/partition"
)

// Report holds all quality measures of one partition, matching the
// columns of the paper's Tables 1 and 2 (SpMV time is measured separately
// by the spmv package).
type Report struct {
	K            int     // number of blocks
	EdgeCut      int64   // cut edges, each counted once
	MaxCommVol   int64   // max over blocks of the block's communication volume
	TotCommVol   int64   // Σ comm (total communication volume)
	Imbalance    float64 // max_b weight(b)/avg - 1
	HarmDiam     float64 // harmonic mean of block diameter lower bounds
	MaxDiam      int32   // maximum finite block diameter bound
	Disconnected int     // number of blocks with more than one component
	EmptyBlocks  int     // blocks with no vertices
}

// String renders the report compactly.
func (r Report) String() string {
	return fmt.Sprintf("k=%d cut=%d maxComm=%d totComm=%d imb=%.3f harmDiam=%.1f disconn=%d",
		r.K, r.EdgeCut, r.MaxCommVol, r.TotCommVol, r.Imbalance, r.HarmDiam, r.Disconnected)
}

// EdgeCut returns the number of edges whose endpoints lie in different
// blocks (each undirected edge counted once).
func EdgeCut(g *graph.Graph, part []int32) int64 {
	var cut int64
	for v := 0; v < g.N; v++ {
		pv := part[v]
		for _, u := range g.Neighbors(int32(v)) {
			if int32(v) < u && part[u] != pv {
				cut++
			}
		}
	}
	return cut
}

// ExternalEdges returns ext(V_b) for every block: the number of edges with
// exactly one endpoint in the block (paper §2).
func ExternalEdges(g *graph.Graph, part []int32, k int) []int64 {
	ext := make([]int64, k)
	for v := 0; v < g.N; v++ {
		pv := part[v]
		for _, u := range g.Neighbors(int32(v)) {
			if part[u] != pv {
				ext[pv]++
			}
		}
	}
	return ext
}

// CommVolumes returns comm(V_b) for every block: for each vertex v in the
// block, the number of *other* blocks containing a neighbor of v (the
// Hendrickson-Kolda communication volume the paper adopts, §2). The
// total communication volume is the sum, the max is taken over blocks.
func CommVolumes(g *graph.Graph, part []int32, k int) []int64 {
	vol := make([]int64, k)
	// Per-vertex distinct-block counting with an epoch-stamped scratch
	// array: O(m) total, no per-vertex allocations.
	stamp := make([]int32, k)
	for i := range stamp {
		stamp[i] = -1
	}
	for v := 0; v < g.N; v++ {
		pv := part[v]
		var distinct int64
		for _, u := range g.Neighbors(int32(v)) {
			pu := part[u]
			if pu != pv && stamp[pu] != int32(v) {
				stamp[pu] = int32(v)
				distinct++
			}
		}
		vol[pv] += distinct
	}
	return vol
}

// BlockWeights returns the total point weight per block.
func BlockWeights(ps *geom.PointSet, part []int32, k int) []float64 {
	w := make([]float64, k)
	for i := 0; i < ps.Len(); i++ {
		w[part[i]] += ps.W(i)
	}
	return w
}

// Imbalance returns max_b weight(b) / (total/k) − 1, floored at 0: the
// load ratio of partition.MaxLoadRatio under uniform targets, which is 0
// for an all-zero vector.
func Imbalance(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	targets, _ := partition.Targets(total, len(weights), nil) // uniform targets never fail
	return max(0, partition.MaxLoadRatio(weights, targets)-1)
}

// BlockDiameters computes a lower bound on the diameter of each block's
// induced subgraph using BFS double sweeps — the paper runs "the first 3
// rounds of the iFUB algorithm" to the same effect (§5.2.4). A block whose
// induced subgraph is disconnected has infinite diameter, reported as -1.
// Empty blocks are reported as 0.
func BlockDiameters(g *graph.Graph, part []int32, k int) []int32 {
	diam := make([]int32, k)
	sizes := make([]int64, k)
	first := make([]int32, k)
	for i := range first {
		first[i] = -1
	}
	for v := 0; v < g.N; v++ {
		b := part[v]
		sizes[b]++
		if first[b] < 0 {
			first[b] = int32(v)
		}
	}
	bfs := graph.NewBFS(g.N)
	for b := 0; b < k; b++ {
		if sizes[b] == 0 {
			diam[b] = 0
			continue
		}
		allow := func(v int32) bool { return part[v] == int32(b) }
		// Sweep 1 from an arbitrary block vertex.
		far, ecc, visited := bfs.Run(g, first[b], allow)
		if int64(visited) < sizes[b] {
			diam[b] = -1 // disconnected: infinite diameter
			continue
		}
		best := ecc
		// Sweeps 2 and 3 from the successively farthest vertices.
		for sweep := 0; sweep < 2; sweep++ {
			far2, ecc2, _ := bfs.Run(g, far, allow)
			if ecc2 > best {
				best = ecc2
			}
			far = far2
		}
		diam[b] = best
	}
	return diam
}

// HarmonicMeanDiameter aggregates per-block diameters with the harmonic
// mean; infinite diameters (disconnected blocks, encoded -1) contribute 0
// to the reciprocal sum, exactly as the paper handles them (§5.3).
// Blocks that are empty or singletons (diameter 0) are skipped to keep the
// mean finite.
func HarmonicMeanDiameter(diam []int32) float64 {
	var recip float64
	count := 0
	for _, d := range diam {
		switch {
		case d < 0: // infinite
			count++
		case d == 0: // empty or singleton: not meaningful
		default:
			recip += 1 / float64(d)
			count++
		}
	}
	if count == 0 || recip == 0 {
		return 0
	}
	return float64(count) / recip
}

// Evaluate computes the full quality report for a partition. The
// partition is validated first; an out-of-range block id is an error,
// not a panic.
func Evaluate(g *graph.Graph, ps *geom.PointSet, part []int32, k int) (Report, error) {
	if ps.Len() != g.N {
		return Report{}, fmt.Errorf("metrics: %d points for %d graph vertices", ps.Len(), g.N)
	}
	if err := partition.Check(part, g.N, k); err != nil {
		return Report{}, err
	}
	r := Report{K: k}
	r.EdgeCut = EdgeCut(g, part)
	vols := CommVolumes(g, part, k)
	for _, v := range vols {
		r.TotCommVol += v
		if v > r.MaxCommVol {
			r.MaxCommVol = v
		}
	}
	r.Imbalance = Imbalance(BlockWeights(ps, part, k))
	diam := BlockDiameters(g, part, k)
	r.HarmDiam = HarmonicMeanDiameter(diam)
	sizes := partition.P{Assign: part, K: k}.Sizes()
	for b := 0; b < k; b++ {
		switch {
		case sizes[b] == 0:
			r.EmptyBlocks++
		case diam[b] < 0:
			r.Disconnected++
		case diam[b] > r.MaxDiam:
			r.MaxDiam = diam[b]
		}
	}
	return r, nil
}

// MigrationVolume returns the total weight and number of points whose
// block changed between two partitions of the same point set — the
// data-movement cost a simulation pays when it adopts the new partition
// (the migration measure of the repartitioning literature; see
// DESIGN.md, "Repartitioning invariants"). prev and next must both
// have one entry per point.
func MigrationVolume(ps *geom.PointSet, prev, next []int32) (weight float64, points int, err error) {
	if len(prev) != ps.Len() || len(next) != ps.Len() {
		return 0, 0, fmt.Errorf("metrics: %d/%d assignments for %d points", len(prev), len(next), ps.Len())
	}
	for i := 0; i < ps.Len(); i++ {
		if prev[i] != next[i] {
			weight += ps.W(i)
			points++
		}
	}
	return weight, points, nil
}

// BlockAspectRatios returns, per block, the aspect ratio of the block's
// bounding box (longest side / shortest side, in the point space). Good
// block shapes — the paper's motivation for k-means over recursive
// bisection (§1, §3.2) — have ratios near 1; strip-shaped RCB blocks have
// large ratios. Empty blocks report 0.
func BlockAspectRatios(ps *geom.PointSet, part []int32, k int) []float64 {
	boxes := make([]geom.Box, k)
	for b := range boxes {
		boxes[b] = geom.EmptyBox(ps.Dim)
	}
	for i := 0; i < ps.Len(); i++ {
		boxes[part[i]].Extend(ps.At(i))
	}
	out := make([]float64, k)
	for b, box := range boxes {
		if box.Empty() {
			continue
		}
		lo, hi := math.Inf(1), 0.0
		for d := 0; d < ps.Dim; d++ {
			s := box.Side(d)
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if lo <= 0 {
			lo = hi * 1e-12 // degenerate (collinear) block
		}
		if hi == 0 {
			out[b] = 1 // single point: perfectly compact by convention
			continue
		}
		out[b] = hi / lo
	}
	return out
}

// MeanAspectRatio averages the nonzero block aspect ratios.
func MeanAspectRatio(ps *geom.PointSet, part []int32, k int) float64 {
	rs := BlockAspectRatios(ps, part, k)
	sum, cnt := 0.0, 0
	for _, r := range rs {
		if r > 0 && !math.IsInf(r, 0) {
			sum += r
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// GeometricMean returns the geometric mean of positive values (zeros and
// negatives are skipped); the paper aggregates metric ratios per instance
// class this way (Fig. 2).
func GeometricMean(vals []float64) float64 {
	var logSum float64
	count := 0
	for _, v := range vals {
		if v > 0 {
			logSum += math.Log(v)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Exp(logSum / float64(count))
}
