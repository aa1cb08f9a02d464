package core

import "math/rand"

// This file holds the point layout of the sampled bootstrap (§4.5): a
// cold rank draws a random order of its points and grows its sample as
// a prefix of that order. The points are moved into the order once, so
// every pass over a sample streams the columns from position 0 instead
// of gathering each point's coordinates through the permutation (at
// d = 16, sixteen scattered cache lines per point visit), and moved back
// once when the sample reaches the whole set. Both moves are in place.

// shuffle draws the rank's random sample order and moves the points into
// it: afterwards position j holds the point that was ingested at perm[j],
// for the perm the shuffle drew. Only the coordinate columns, weights and
// curve anchors move — assignments and bounds are still uniform
// (unassigned, unknown), and the ids are read only when the run returns,
// by which time unshuffle has restored ingest order.
func (st *state) shuffle() {
	// The permutation is drawn in allIdx, which cycleList leaves the
	// identity again.
	perm := st.allIdx
	rng := rand.New(rand.NewSource(st.cfg.Seed + int64(st.c.Rank())*65537 + 7))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	st.cycles = cycleList(perm, st.cycles[:0])
	st.forCycles(func(first int32, rest []int32) {
		for _, col := range st.X.Col {
			rotate(col, first, rest)
		}
		rotate(st.W, first, rest)
		if st.curveBlock != nil {
			rotate(st.curveBlock, first, rest)
		}
	})
}

// unshuffle ends the sampled bootstrap: it moves the points back to
// ingest order together with the assignments and bounds the sampled
// iterations built (A, ub, lb, Elkan's lbk rows), and makes the sample
// the whole set. The full-set passes that follow then visit the points,
// and add their center and weight sums, in ingest order, exactly as a
// run that never sampled. (The raw shadow and the own-bank assignment
// belong to warm and unsampled runs.)
func (st *state) unshuffle() {
	st.forCycles(func(first int32, rest []int32) {
		for _, col := range st.X.Col {
			rotateBack(col, first, rest)
		}
		rotateBack(st.W, first, rest)
		rotateBack(st.A, first, rest)
		rotateBack(st.ub, first, rest)
		rotateBack(st.lb, first, rest)
		if st.lbk != nil {
			rotateRowsBack(st.lbk, st.k, first, rest)
		}
	})
	st.fillCurveBlocks() // a function of the position again: refilled, not moved
	st.nSample = st.X.Len()
	st.resetBox()
}

// cycleList appends the cycles of perm to out, each as the walk
// s, perm[s], perm[perm[s]], … with its first position complemented
// (fixed points are left out: they do not move). The walk marks a
// visited position by making it a fixed point, so perm is left the
// identity.
func cycleList(perm, out []int32) []int32 {
	for s := range perm {
		if int(perm[s]) == s {
			continue
		}
		out = append(out, ^int32(s))
		for j := int32(s); ; {
			next := perm[j]
			perm[j] = j
			if int(next) == s {
				break
			}
			out = append(out, next)
			j = next
		}
	}
	return out
}

// forCycles calls f once per cycle of st.cycles with its first position
// and the rest of its walk (never empty).
func (st *state) forCycles(f func(first int32, rest []int32)) {
	c := st.cycles
	for lo := 0; lo < len(c); {
		hi := lo + 1
		for hi < len(c) && c[hi] >= 0 {
			hi++
		}
		f(^c[lo], c[lo+1:hi])
		lo = hi
	}
}

// rotate moves a along one cycle of the walk: every position takes the
// value of the next one, the last position the first's.
func rotate[T any](a []T, first int32, rest []int32) {
	tmp, prev := a[first], first
	for _, j := range rest {
		a[prev] = a[j]
		prev = j
	}
	a[prev] = tmp
}

// rotateBack undoes rotate: every position takes the value of the one
// before it, the first position the last's.
func rotateBack[T any](a []T, first int32, rest []int32) {
	last := len(rest) - 1
	tmp := a[rest[last]]
	for t := last; t > 0; t-- {
		a[rest[t]] = a[rest[t-1]]
	}
	a[rest[0]] = a[first]
	a[first] = tmp
}

// rotateRowsBack is rotateBack for rows of k values (Elkan's per-center
// bounds), swapping the last row down the walk so no row buffer is needed.
func rotateRowsBack(a []float64, k int, first int32, rest []int32) {
	swap := func(i, j int32) {
		ri, rj := a[int(i)*k:int(i)*k+k], a[int(j)*k:int(j)*k+k]
		for b := range ri {
			ri[b], rj[b] = rj[b], ri[b]
		}
	}
	for t := len(rest) - 1; t > 0; t-- {
		swap(rest[t], rest[t-1])
	}
	swap(rest[0], first)
}
