// Package spmv measures the communication cost a partition induces on the
// central kernel of mesh-based simulations: sparse matrix-vector
// multiplication with the mesh adjacency matrix (paper §2: "we
// redistribute the input graph according to [the partition], perform
// sparse matrix-vector multiplications ... and measure the communication
// time needed within the SpMV").
//
// One simulated rank owns each block. Before the iterations, ranks
// exchange halo plans (which of my vertices each neighbor block needs);
// during each iteration they pack boundary values, run one personalized
// all-to-all, and multiply locally. Reported numbers are the wall-clock
// time of the communication phase and the α-β modeled time, both averaged
// per iteration.
package spmv

import (
	"fmt"
	"sort"
	"time"

	"geographer/internal/graph"
	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// Result summarizes one SpMV benchmark run.
type Result struct {
	Iterations         int
	CommSeconds        float64 // max over ranks, wall clock, per iteration
	ModeledCommSeconds float64 // α-β model, max over ranks, per iteration
	TotalHaloValues    int64   // values exchanged per iteration (all ranks)
	MaxHaloValues      int64   // heaviest rank's received values per iteration
	Checksum           float64 // Σy after the last iteration (verification)
}

// Benchmark runs iters SpMV iterations of the adjacency matrix of g
// distributed according to part (k blocks = k ranks) and reports
// communication cost. The multiplied vector starts as all-ones and is
// refreshed from y after every iteration, so results are checkable.
// k must lie in [1, n]: every block is a rank, none of them idle.
func Benchmark(g *graph.Graph, part []int32, k int, iters int) (Result, error) {
	if k < 1 || k > g.N {
		return Result{}, fmt.Errorf("spmv: k=%d outside [1, %d]", k, g.N)
	}
	if err := partition.Check(part, g.N, k); err != nil {
		return Result{}, err
	}
	if iters < 1 {
		iters = 1
	}

	// Global structures shared read-only by all ranks.
	owned := make([][]int32, k) // vertices per block, ascending
	for v := 0; v < g.N; v++ {
		owned[part[v]] = append(owned[part[v]], int32(v))
	}

	world := mpi.NewWorld(k)
	commSec := make([]float64, k)
	checksums := make([]float64, k)

	err := world.Run(func(c *mpi.Comm) {
		me := c.Rank()
		mine := owned[me]
		localIdx := make(map[int32]int32, len(mine))
		for i, v := range mine {
			localIdx[v] = int32(i)
		}

		// Halo discovery: foreign vertices my rows reference, per owner.
		need := make(map[int32][]int32) // owner -> foreign vertices (dedup later)
		for _, v := range mine {
			for _, u := range g.Neighbors(v) {
				if part[u] != int32(me) {
					need[part[u]] = append(need[part[u]], u)
				}
			}
		}
		recvLists := make([][]int32, k) // vertices I receive from each owner
		for owner, vs := range need {
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			dedup := vs[:0]
			for i, u := range vs {
				if i == 0 || vs[i-1] != u {
					dedup = append(dedup, u)
				}
			}
			recvLists[owner] = dedup
		}

		// Exchange plans: tell each owner which of its values I need.
		plansOut := make([][]int32, k)
		for owner := 0; owner < k; owner++ {
			plansOut[owner] = recvLists[owner]
		}
		sendLists := mpi.Alltoall(c, plansOut) // sendLists[dst] = my vertices dst needs

		// Halo slot layout: x = [own values | halo values].
		haloSlot := make(map[int32]int32)
		nHalo := 0
		for owner := 0; owner < k; owner++ {
			for _, u := range recvLists[owner] {
				haloSlot[u] = int32(len(mine) + nHalo)
				nHalo++
			}
		}

		// Local CSR with remapped columns.
		var xadj []int64
		var cols []int32
		xadj = append(xadj, 0)
		for _, v := range mine {
			for _, u := range g.Neighbors(v) {
				if part[u] == int32(me) {
					cols = append(cols, localIdx[u])
				} else {
					cols = append(cols, haloSlot[u])
				}
			}
			xadj = append(xadj, int64(len(cols)))
		}

		x := make([]float64, len(mine)+nHalo)
		y := make([]float64, len(mine))
		for i := range mine {
			x[i] = 1
		}

		var localCommSec float64
		for it := 0; it < iters; it++ {
			// --- Communication phase (timed): pack, exchange, unpack.
			t0 := time.Now()
			sendVals := make([][]float64, k)
			for dst := 0; dst < k; dst++ {
				if len(sendLists[dst]) == 0 {
					continue
				}
				vals := make([]float64, len(sendLists[dst]))
				for i, v := range sendLists[dst] {
					vals[i] = x[localIdx[v]]
				}
				sendVals[dst] = vals
			}
			recvVals := mpi.Alltoall(c, sendVals)
			for owner := 0; owner < k; owner++ {
				for i, u := range recvLists[owner] {
					x[haloSlot[u]] = recvVals[owner][i]
				}
			}
			localCommSec += time.Since(t0).Seconds()

			// --- Local multiply: y = A·x (unweighted adjacency).
			for i := range mine {
				sum := 0.0
				for jj := xadj[i]; jj < xadj[i+1]; jj++ {
					sum += x[cols[jj]]
				}
				y[i] = sum
			}
			c.AddOps(xadj[len(mine)])

			// Refresh x from y, dampened to keep values bounded.
			for i := range mine {
				deg := float64(xadj[i+1] - xadj[i])
				if deg == 0 {
					deg = 1
				}
				x[i] = y[i] / deg
			}
		}
		commSec[me] = localCommSec
		sum := 0.0
		for _, v := range y {
			sum += v
		}
		checksums[me] = sum
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{Iterations: iters}
	for _, s := range commSec {
		if s > res.CommSeconds {
			res.CommSeconds = s
		}
	}
	res.CommSeconds /= float64(iters)
	stats := world.Stats()
	for _, s := range stats {
		if s.ModeledCommSec > res.ModeledCommSeconds {
			res.ModeledCommSeconds = s.ModeledCommSec
		}
	}
	res.ModeledCommSeconds /= float64(iters)
	for _, s := range checksums {
		res.Checksum += s
	}

	// Halo volumes straight from the partition (independent of timing).
	tot, max := HaloVolumes(g, part, k)
	res.TotalHaloValues = tot
	res.MaxHaloValues = max
	return res, nil
}

// HaloVolumes returns the number of vector values exchanged per SpMV
// iteration: total over ranks and the maximum received by one rank. These
// equal the communication volumes of the partition (§2).
func HaloVolumes(g *graph.Graph, part []int32, k int) (total, maxPerRank int64) {
	recv := make([]int64, k)
	stamp := make([]int64, k)
	for i := range stamp {
		stamp[i] = -1
	}
	// For each vertex v, each *other* block containing a neighbor of v
	// receives v's value once.
	for v := 0; v < g.N; v++ {
		pv := part[v]
		for _, u := range g.Neighbors(int32(v)) {
			pu := part[u]
			if pu != pv && stamp[pu] != int64(v) {
				stamp[pu] = int64(v)
				recv[pu]++
			}
		}
	}
	for _, r := range recv {
		total += r
		if r > maxPerRank {
			maxPerRank = r
		}
	}
	return total, maxPerRank
}
