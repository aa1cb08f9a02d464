package mpi

import "unsafe"

// Number constrains element types usable in reductions and scans. Every
// member is at most 8 bytes, which the scalar collectives exploit to
// exchange values through a pre-allocated uint64 array instead of boxing
// them into interfaces (see putScalar).
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// sizeOf returns the in-memory element size of T, used only for traffic
// statistics (a proxy for wire size).
func sizeOf[T any]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// ---------------------------------------------------------------------
// Deposit and result plumbing.
//
// The zero-alloc collective contract (DESIGN.md, "Scaling invariants"):
// the collectives used on the warm repartition path — AllreduceSumInto /
// MinInto / MaxInto, AllreduceSumSparse, ExscanSum, ReduceScalarSum/Max,
// Barrier — perform no per-call heap allocation in steady state. Three
// mechanisms make that hold:
//
//   - slice contributions are deposited as slotHdr (pointer+len) instead
//     of being boxed into `any`, which would heap-allocate a slice
//     header per call;
//   - scalar contributions are type-punned through the world's uint64
//     arrays (every Number fits in 8 aligned bytes);
//   - rendezvous folds write into buffers owned by the world (resBufs,
//     scan, resOffs), grown once and reused forever after.
//
// The reuse of rendezvous buffers is safe under the single-crossing
// discipline: a buffer published at one rendezvous is only rewritten at
// the *next* rendezvous, which cannot run until every rank has re-entered
// the barrier — i.e. has finished reading the previous result.

func depositSlice[T any](w *World, rank int, s []T) {
	w.hdrs[rank] = slotHdr{ptr: unsafe.Pointer(unsafe.SliceData(s)), len: len(s)}
}

func slotSlice[T any](w *World, r int) []T {
	h := w.hdrs[r]
	if h.ptr == nil {
		return nil
	}
	return unsafe.Slice((*T)(h.ptr), h.len)
}

// resultBuf returns a length-n []T for a rendezvous fold to fill,
// reusing the world's previously grown buffer of this element type, and
// publishes it through resHdr. Must only be called inside a rendezvous
// action (single goroutine, deposits visible).
func resultBuf[T any](w *World, n int) []T {
	for i, b := range w.resBufs {
		if s, ok := b.([]T); ok {
			if cap(s) < n {
				s = make([]T, n)
				w.resBufs[i] = s
			}
			s = s[:n]
			w.resHdr = slotHdr{ptr: unsafe.Pointer(unsafe.SliceData(s)), len: n}
			return s
		}
	}
	s := make([]T, n)
	w.resBufs = append(w.resBufs, s)
	w.resHdr = slotHdr{ptr: unsafe.Pointer(unsafe.SliceData(s)), len: n}
	return s
}

// resultSlice reads back the buffer published by the last rendezvous.
func resultSlice[T any](w *World) []T {
	if w.resHdr.ptr == nil {
		return nil
	}
	return unsafe.Slice((*T)(w.resHdr.ptr), w.resHdr.len)
}

// putScalar / getScalar move one Number through a uint64 cell without
// boxing. Valid because every Number is ≤ 8 bytes and the cells are
// 8-byte aligned; writer and reader agree on T per collective call.
func putScalar[T Number](arr []uint64, i int, v T) {
	*(*T)(unsafe.Pointer(&arr[i])) = v
}

func getScalar[T Number](arr []uint64, i int) T {
	return *(*T)(unsafe.Pointer(&arr[i]))
}

// collectiveStats records one collective contributing `bytes` from this
// rank.
func (c *Comm) collectiveStats(bytes int64) {
	c.w.hook(c.rank) // fault-injection / transport hook (nil check when unused)
	st := &c.w.stats[c.rank]
	st.Collectives++
	st.CollectiveBytes += bytes
	st.ModeledCommSec += c.w.model.CollectiveTime(c.w.size, bytes)
}

// ---------------------------------------------------------------------
// Reductions.

// allreduce is the shared skeleton: all ranks deposit their contribution
// and enter the barrier; the last arriver folds all contributions in
// rank order (so float results are bit-identical on every rank and
// across runs) into a world-owned buffer; each rank copies the result on
// release. Total fold work is O(p·len) rather than the O(p²·len) of
// everyone-reduces-everything.
//
// This costs a single barrier crossing. No exit barrier is needed: the
// next collective's rendezvous — the only point where deposits and the
// result buffer are touched again — requires every rank here to have
// finished copying first. The balance loop of the k-means core issues
// one reduction per round, so barrier crossings are the phase's floor at
// high rank counts.
//
// out, when non-nil, receives the result (len(out) ≥ len(in)) and is
// returned; out == in is allowed (the fold has consumed every deposit
// before any rank copies). A nil out allocates.
func allreduce[T Number](c *Comm, in, out []T, fold func(acc, v T) T) []T {
	w := c.w
	depositSlice(w, c.rank, in)
	c.collectiveStats(int64(len(in)) * sizeOf[T]())
	n := len(in)
	w.bar.waitWith(c.rank, func() {
		res := resultBuf[T](w, n)
		copy(res, slotSlice[T](w, 0))
		for r := 1; r < w.size; r++ {
			contrib := slotSlice[T](w, r)
			for i, v := range contrib {
				res[i] = fold(res[i], v)
			}
		}
	})
	if out == nil {
		out = make([]T, n)
	}
	copy(out[:n], resultSlice[T](w))
	return out[:n]
}

func foldSum[T Number](acc, v T) T { return acc + v }

func foldMax[T Number](acc, v T) T {
	if v > acc {
		return v
	}
	return acc
}

func foldMin[T Number](acc, v T) T {
	if v < acc {
		return v
	}
	return acc
}

// AllreduceSum returns, on every rank, the element-wise sum of `in` across
// all ranks. All ranks must pass equal-length slices. The reduction order
// is rank 0..p-1, so results are bit-identical everywhere.
func AllreduceSum[T Number](c *Comm, in []T) []T {
	return allreduce(c, in, nil, foldSum[T])
}

// AllreduceSumInto is AllreduceSum writing into out (len(out) ≥ len(in));
// out == in reduces in place. Allocation-free in steady state.
func AllreduceSumInto[T Number](c *Comm, in, out []T) []T {
	return allreduce(c, in, out, foldSum[T])
}

// AllreduceMax returns the element-wise maximum across ranks.
func AllreduceMax[T Number](c *Comm, in []T) []T {
	return allreduce(c, in, nil, foldMax[T])
}

// AllreduceMin returns the element-wise minimum across ranks.
func AllreduceMin[T Number](c *Comm, in []T) []T {
	return allreduce(c, in, nil, foldMin[T])
}

// AllreduceMinInto is AllreduceMin writing into out; out == in allowed.
func AllreduceMinInto[T Number](c *Comm, in, out []T) []T {
	return allreduce(c, in, out, foldMin[T])
}

// AllreduceSumSparse sums conceptual length-n vectors that are zero
// outside each rank's window: this rank contributes seg at offset off
// (off+len(seg) ≤ n). The union window's sum is written into
// out[lo:lo+length] and (lo, length) returned; out entries outside that
// window are left untouched and must be treated as zero by the caller.
// len(out) must be ≥ n. seg may alias out (in-place update of a resident
// vector).
//
// This is the wire format of the exact-accumulator reductions on the
// warm path: real data touches a handful of limb rows out of 66, so the
// fold and the copies shrink ~10× versus a dense AllreduceSum while the
// result stays bit-identical (integer limb addition is associative).
// Traffic statistics count only the window actually sent. Single
// crossing, allocation-free in steady state.
func AllreduceSumSparse[T Number](c *Comm, n, off int, seg, out []T) (int, int) {
	if off < 0 || off+len(seg) > n {
		panic("mpi: AllreduceSumSparse window out of range")
	}
	if len(out) < n {
		panic("mpi: AllreduceSumSparse out shorter than n")
	}
	w := c.w
	depositSlice(w, c.rank, seg)
	w.scalB[c.rank] = uint64(off)
	c.collectiveStats(int64(len(seg)) * sizeOf[T]())
	w.bar.waitWith(c.rank, func() {
		lo, hi := n, 0
		for r := 0; r < w.size; r++ {
			l := w.hdrs[r].len
			if l == 0 {
				continue
			}
			o := int(w.scalB[r])
			if o < lo {
				lo = o
			}
			if o+l > hi {
				hi = o + l
			}
		}
		if hi <= lo {
			lo, hi = 0, 0
		}
		res := resultBuf[T](w, hi-lo)
		clear(res)
		for r := 0; r < w.size; r++ {
			seg := slotSlice[T](w, r)
			o := int(w.scalB[r]) - lo
			for i, v := range seg {
				res[o+i] += v
			}
		}
		w.resOff, w.resLen = lo, hi-lo
	})
	lo, length := w.resOff, w.resLen
	copy(out[lo:lo+length], resultSlice[T](w))
	return lo, length
}

// ---------------------------------------------------------------------
// Gathers.

// Allgather returns, on every rank, a fresh slice [rank] -> contribution.
// Contributions may have different lengths (allgatherv semantics).
func Allgather[T any](c *Comm, in []T) [][]T {
	w := c.w
	depositSlice(w, c.rank, in)
	c.collectiveStats(int64(len(in)) * sizeOf[T]())
	w.bar.wait(c.rank)
	out := make([][]T, w.size)
	for r := 0; r < w.size; r++ {
		contrib := slotSlice[T](w, r)
		cp := make([]T, len(contrib))
		copy(cp, contrib)
		out[r] = cp
	}
	w.bar.wait(c.rank) // senders' buffers stay live until everyone copied
	return out
}

// AllgatherFlat concatenates all contributions in rank order.
func AllgatherFlat[T any](c *Comm, in []T) []T {
	return AllgatherFlatInto(c, in, nil)
}

// AllgatherFlatInto is AllgatherFlat writing into out when cap(out)
// suffices (the possibly regrown slice is returned). The concatenation
// offsets are computed once at the rendezvous — O(p) total instead of
// O(p) per rank — and each rank then copies the segments in parallel.
// Two crossings: contributions are read from the senders' live buffers,
// so an exit barrier keeps them pinned until everyone has copied.
func AllgatherFlatInto[T any](c *Comm, in, out []T) []T {
	w := c.w
	depositSlice(w, c.rank, in)
	c.collectiveStats(int64(len(in)) * sizeOf[T]())
	w.bar.waitWith(c.rank, func() {
		if cap(w.resOffs) < w.size+1 {
			w.resOffs = make([]int, w.size+1)
		}
		offs := w.resOffs[:w.size+1]
		total := 0
		for r := 0; r < w.size; r++ {
			offs[r] = total
			total += w.hdrs[r].len
		}
		offs[w.size] = total
	})
	offs := w.resOffs[:w.size+1]
	total := offs[w.size]
	if cap(out) < total {
		out = make([]T, total)
	}
	out = out[:total]
	for r := 0; r < w.size; r++ {
		copy(out[offs[r]:offs[r+1]], slotSlice[T](w, r))
	}
	w.bar.wait(c.rank)
	return out
}

// ---------------------------------------------------------------------
// Personalized all-to-alls.

// Alltoall performs a personalized all-to-all: send[dst] goes to rank dst;
// the result's [src] entry is what rank src sent here. Slice lengths may
// vary per pair (alltoallv semantics). Received data is copied, so senders
// may reuse their buffers immediately after return.
func Alltoall[T any](c *Comm, send [][]T) [][]T {
	w := c.w
	if len(send) != w.size {
		panic("mpi: Alltoall send slice must have one entry per rank")
	}
	var bytes int64
	es := sizeOf[T]()
	for dst, s := range send {
		if dst != c.rank {
			bytes += int64(len(s)) * es
		}
	}
	depositSlice(w, c.rank, send)
	c.collectiveStats(bytes)
	w.bar.wait(c.rank)
	out := make([][]T, w.size)
	for r := 0; r < w.size; r++ {
		chunk := slotSlice[[]T](w, r)[c.rank]
		cp := make([]T, len(chunk))
		copy(cp, chunk)
		out[r] = cp
	}
	w.bar.wait(c.rank)
	return out
}

// flatSend is the contribution slot of AlltoallFlat: one flat buffer
// holding contiguous per-destination segments, their lengths, and their
// exclusive prefix offsets. The sender computes offs once — previously
// every receiver re-scanned every sender's counts, an O(p²)-per-rank
// (O(p³) aggregate) cost that dominated high-p redistribution.
type flatSend[T any] struct {
	data   []T
	counts []int
	offs   []int
}

// AlltoallFlat performs a personalized all-to-all over a flat buffer:
// send must be the concatenation of one contiguous segment per
// destination rank (segment lengths in sendCounts, rank order; they must
// sum to len(send)). It returns the segments received from all ranks
// concatenated in rank order plus the per-source lengths.
//
// Unlike Alltoall, the caller passes no [][]T, and traffic statistics
// count exactly the off-rank elements of this buffer, so the modeled
// wire size follows the real payload. This is the single-column
// variant (and the cross-check oracle of the AlltoallCols tests);
// multi-column record batches like the SoA redistribution of
// internal/dsort use AlltoallCols to pay one collective for all
// columns.
func AlltoallFlat[T any](c *Comm, send []T, sendCounts []int) ([]T, []int) {
	w := c.w
	if len(sendCounts) != w.size {
		panic("mpi: AlltoallFlat needs one send count per rank")
	}
	es := sizeOf[T]()
	var bytes int64
	offs := make([]int, w.size+1)
	for dst, cnt := range sendCounts {
		if cnt < 0 {
			panic("mpi: AlltoallFlat negative send count")
		}
		offs[dst+1] = offs[dst] + cnt
		if dst != c.rank {
			bytes += int64(cnt) * es
		}
	}
	if offs[w.size] != len(send) {
		panic("mpi: AlltoallFlat send counts do not sum to the buffer length")
	}
	w.slots[c.rank] = flatSend[T]{data: send, counts: sendCounts, offs: offs}
	c.collectiveStats(bytes)
	w.bar.wait(c.rank)
	recvCounts := make([]int, w.size)
	total := 0
	for r := 0; r < w.size; r++ {
		recvCounts[r] = w.slots[r].(flatSend[T]).counts[c.rank]
		total += recvCounts[r]
	}
	out := make([]T, 0, total)
	for r := 0; r < w.size; r++ {
		fs := w.slots[r].(flatSend[T])
		lo := fs.offs[c.rank]
		out = append(out, fs.data[lo:lo+fs.counts[c.rank]]...)
	}
	w.bar.wait(c.rank)
	return out, recvCounts
}

// colsSend is the contribution slot of AlltoallCols; offs as in flatSend.
type colsSend struct {
	u64    []uint64
	i64    []int64
	f64    [][]float64
	counts []int
	offs   []int
}

// AlltoallCols exchanges one record batch stored as parallel flat
// columns — one []uint64, one []int64, and any number of []float64
// columns, all segmented by the same sendCounts — in a *single*
// collective. This is the SoA redistribution primitive of
// internal/dsort: compared with one AlltoallFlat per column it performs
// one barrier enter/exit pair instead of 3+dim, so collective counts
// and modeled latency are those of one personalized all-to-all, while
// the accounted bytes still follow the real
// per-dimension wire size (8·(2+len(f64)) bytes per off-rank record).
// Received segments are concatenated in rank order; the returned counts
// give the per-source run lengths.
func AlltoallCols(c *Comm, u64 []uint64, i64 []int64, f64 [][]float64, sendCounts []int) ([]uint64, []int64, [][]float64, []int) {
	w := c.w
	if len(sendCounts) != w.size {
		panic("mpi: AlltoallCols needs one send count per rank")
	}
	var offRank int64
	offs := make([]int, w.size+1)
	for dst, cnt := range sendCounts {
		if cnt < 0 {
			panic("mpi: AlltoallCols negative send count")
		}
		offs[dst+1] = offs[dst] + cnt
		if dst != c.rank {
			offRank += int64(cnt)
		}
	}
	total := offs[w.size]
	if total != len(u64) || total != len(i64) {
		panic("mpi: AlltoallCols send counts do not sum to the column length")
	}
	for _, col := range f64 {
		if len(col) != total {
			panic("mpi: AlltoallCols ragged float column")
		}
	}
	w.slots[c.rank] = colsSend{u64: u64, i64: i64, f64: f64, counts: sendCounts, offs: offs}
	c.collectiveStats(offRank * int64(8*(2+len(f64))))
	w.bar.wait(c.rank)
	recvCounts := make([]int, w.size)
	total = 0
	for r := 0; r < w.size; r++ {
		recvCounts[r] = w.slots[r].(colsSend).counts[c.rank]
		total += recvCounts[r]
	}
	outU := make([]uint64, 0, total)
	outI := make([]int64, 0, total)
	outF := make([][]float64, len(f64))
	for d := range outF {
		outF[d] = make([]float64, 0, total)
	}
	for r := 0; r < w.size; r++ {
		cs := w.slots[r].(colsSend)
		lo := cs.offs[c.rank]
		hi := lo + cs.counts[c.rank]
		outU = append(outU, cs.u64[lo:hi]...)
		outI = append(outI, cs.i64[lo:hi]...)
		for d := range outF {
			outF[d] = append(outF[d], cs.f64[d][lo:hi]...)
		}
	}
	w.bar.wait(c.rank)
	return outU, outI, outF, recvCounts
}

// ---------------------------------------------------------------------
// Scalar scans and reductions.

// ExscanSum returns the exclusive prefix sum of v over ranks: rank r gets
// v_0 + ... + v_{r-1}; rank 0 gets zero. Used to convert local counts into
// global offsets (e.g. global point positions after the distributed sort).
// The rendezvous computes the whole prefix array in one O(p) pass —
// previously every rank re-scanned the ranks below it, O(p²) aggregate.
// Single crossing, allocation-free.
func ExscanSum[T Number](c *Comm, v T) T {
	w := c.w
	putScalar(w.scal, c.rank, v)
	c.collectiveStats(sizeOf[T]())
	w.bar.waitWith(c.rank, func() {
		var acc T
		for r := 0; r < w.size; r++ {
			x := getScalar[T](w.scal, r)
			putScalar(w.scan, r, acc)
			acc += x
		}
	})
	return getScalar[T](w.scan, c.rank)
}

// ReduceScalarSum returns the total of v over all ranks (on every rank).
// Single crossing, allocation-free.
func ReduceScalarSum[T Number](c *Comm, v T) T {
	w := c.w
	putScalar(w.scal, c.rank, v)
	c.collectiveStats(sizeOf[T]())
	w.bar.waitWith(c.rank, func() {
		acc := getScalar[T](w.scal, 0)
		for r := 1; r < w.size; r++ {
			acc += getScalar[T](w.scal, r)
		}
		*(*T)(unsafe.Pointer(&w.scalRes)) = acc
	})
	return *(*T)(unsafe.Pointer(&w.scalRes))
}

// ReduceScalarMax returns the maximum of v over all ranks (on every rank).
// Single crossing, allocation-free.
func ReduceScalarMax[T Number](c *Comm, v T) T {
	w := c.w
	putScalar(w.scal, c.rank, v)
	c.collectiveStats(sizeOf[T]())
	w.bar.waitWith(c.rank, func() {
		best := getScalar[T](w.scal, 0)
		for r := 1; r < w.size; r++ {
			if x := getScalar[T](w.scal, r); x > best {
				best = x
			}
		}
		*(*T)(unsafe.Pointer(&w.scalRes)) = best
	})
	return *(*T)(unsafe.Pointer(&w.scalRes))
}
