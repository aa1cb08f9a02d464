// Package mpi provides a simulated distributed-memory runtime with
// MPI-like semantics, built on goroutines and channels.
//
// The paper's Geographer runs on real MPI with up to 16 384 processes
// (§5.2.1). This package substitutes that substrate: a World spawns one
// goroutine per simulated rank; each rank owns private data and all
// sharing happens through explicit collectives (Barrier, Allreduce,
// AllgatherFlat, Alltoall, Exscan), exactly mirroring the communication
// structure of the paper's implementation, which has no point-to-point
// messages.
//
// Every rank accumulates traffic statistics (collective bytes and
// counts) and an α-β (latency–bandwidth) modeled communication time, so
// experiments can report the *scaling shape* of an algorithm even though
// the goroutines run on a small host (see DESIGN.md, substitutions).
//
// The runtime is engineered for thousands of simulated ranks on one host
// (DESIGN.md, "Scaling invariants"): ranks synchronize through a
// two-level combining-tree barrier instead of one central mutex, most
// collectives fold their result once at the barrier rendezvous in a
// single crossing, and the hot collectives have caller-buffer (*Into)
// variants that perform no per-call heap allocation.
//
// Usage requires the usual SPMD discipline: all ranks must invoke the same
// sequence of collective operations. Violations deadlock, like real MPI.
package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// ErrBroken is the sentinel for a dead world: a rank panicked, a hook
// failed, or the world was aborted. Blocked ranks are released with a
// *AbortError, which matches ErrBroken under errors.Is; the bare
// sentinel is only ever the panic value on interior paths that have no
// cause to attach yet.
var ErrBroken = errors.New("mpi: world broken by rank panic")

// slotHdr is a typed-slice deposit without interface boxing: storing a
// []T into an `any` slot heap-allocates a three-word header on every
// collective call, which the zero-alloc collective contract forbids.
// The header keeps the element pointer (GC-scanned, so the backing array
// stays alive) and length; deposit and read sites agree on T because
// they belong to the same collective call.
type slotHdr struct {
	ptr unsafe.Pointer
	len int
}

// World is a group of simulated ranks. Create with NewWorld, execute SPMD
// code with Run. A World can be reused for several consecutive Run calls
// (e.g. one per experiment phase); statistics accumulate until Reset.
type World struct {
	size int
	// bar is a concrete type, not an interface: a call through an
	// interface would leak every waitWith closure to the heap, one
	// allocation per collective.
	bar   *treeBarrier
	stats []Stats
	model CostModel

	// Collective exchange state. slots carries structured contributions
	// (Alltoall's [][]T, the flat-send descriptors); hdrs carries flat
	// []T contributions without boxing; scal/scalB carry one scalar (or
	// two packed words) per rank for the scalar collectives, type-punned
	// through uint64 so depositing allocates nothing.
	slots []any
	hdrs  []slotHdr
	scal  []uint64
	scalB []uint64

	// Rendezvous-published results. resHdr points at the buffer the
	// rendezvous fold produced (one of resBufs, reused across calls);
	// scan holds per-rank scalar results (prefix sums); resOff/resLen
	// describe the occupied window of a sparse reduction; resOffs holds
	// gather offsets. All are written only at a barrier rendezvous and
	// read only between that rendezvous and the next one, which is the
	// single-crossing reuse discipline documented on allreduce.
	result  any
	resHdr  slotHdr
	scan    []uint64
	scalRes uint64
	resOff  int
	resLen  int
	resOffs []int
	resBufs []any

	// Fault-tolerance state (abort.go/fault.go): optional runtime hooks
	// with their per-rank collective-entry counters.
	hooks    Hooks
	episodes []int64

	mu         sync.Mutex
	err        error
	errPrimary bool // err carries a root cause, not a release panic
}

// NewWorld creates a world with the given number of ranks (>= 1).
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	return &World{
		size:  size,
		bar:   newTreeBarrier(size, groupShift(size)),
		slots: make([]any, size),
		hdrs:  make([]slotHdr, size),
		scal:  make([]uint64, size),
		scalB: make([]uint64, size),
		scan:  make([]uint64, size),
		stats: make([]Stats, size),
		model: DefaultCostModel(),
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// CostModel returns the active cost model.
func (w *World) CostModel() CostModel { return w.model }

// Run executes f once per rank, concurrently, and waits for all ranks to
// finish. If any rank panics (or a hook fails, or the world is aborted),
// the world is broken: remaining ranks are released from their
// collectives with an *AbortError panic, no rank goroutine is
// left behind, and the abort of the root-cause rank is returned. A
// broken world stays broken — later Run calls fail immediately with the
// same error; recovery means building a fresh World (typically from a
// checkpoint, see internal/repart).
func (w *World) Run(f func(c *Comm)) error {
	liveRanks.Add(int64(w.size))
	defer liveRanks.Add(-int64(w.size))
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				// A rank released from a poisoned barrier
				// re-panics the abort it was handed; that is a secondary
				// effect, not a root cause — it must never displace the
				// failing rank's own error.
				switch e := rec.(type) {
				case *AbortError:
					w.breakWorld(e, false)
				case error:
					if errors.Is(e, ErrBroken) {
						w.breakWorld(&AbortError{Rank: rank, Cause: e}, false)
					} else {
						w.breakWorld(&AbortError{Rank: rank, Cause: e}, true)
					}
				default:
					w.breakWorld(&AbortError{Rank: rank, Cause: asError(rec)}, true)
				}
			}()
			f(&Comm{w: w, rank: rank})
		}(r)
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// breakWorld poisons the world with err. primary marks a root cause
// (rank panic, hook failure, external Abort) as opposed to the re-panic
// of a released waiter; the first primary cause wins, and a secondary
// error only ever fills an empty slot. All rank goroutines finish before
// Run reads w.err, and root-cause recovers run before their goroutine
// exits, so the returned error is always the primary cause when one
// exists.
func (w *World) breakWorld(err *AbortError, primary bool) {
	w.mu.Lock()
	if w.err == nil || (primary && !w.errPrimary) {
		w.err, w.errPrimary = err, primary
	}
	cause := w.err
	w.mu.Unlock()
	w.bar.brk(cause)
}

// Stats returns a copy of the per-rank statistics.
func (w *World) Stats() []Stats {
	out := make([]Stats, w.size)
	copy(out, w.stats)
	return out
}

// ResetStats zeroes all per-rank statistics.
func (w *World) ResetStats() {
	for i := range w.stats {
		w.stats[i] = Stats{}
	}
}

// Comm is a per-rank handle; the only way ranks interact with the world.
// Comm values are created by Run and must not be shared between ranks.
type Comm struct {
	w    *World
	rank int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Stats returns a pointer to this rank's statistics (rank-private).
func (c *Comm) Stats() *Stats { return &c.w.stats[c.rank] }

// Barrier blocks until all ranks reach it. It establishes a
// happens-before edge between everything written before the barrier on
// any rank and everything read after it on every rank.
func (c *Comm) Barrier() {
	c.w.hook(c.rank)
	st := &c.w.stats[c.rank]
	st.Barriers++
	st.ModeledCommSec += c.w.model.CollectiveLatency(c.w.size)
	c.w.bar.wait(c.rank)
}

// ---------------------------------------------------------------------
// Combining-tree barrier: the rank-synchronization primitive of a World.
//
// A central sense-reversing barrier serializes all p ranks on one mutex:
// p lock acquisitions to arrive and p more as the broadcast wakes every
// waiter through the same lock — the dominant cost of a collective once
// p reaches the thousands. The tree barrier splits ranks into √p groups
// of √p: ranks arrive at their group node (contending only with their
// group), the last arriver of each group proceeds to the root node
// (contending only with the other group representatives), and the last
// arriver at the root runs the rendezvous action and releases the tree —
// root first, then each representative releases its own group, so
// wake-ups fan out through independent locks instead of convoying on
// one. Max contention per lock drops from p to ~√p (64 at p=4096). A
// tree of one leaf with fan-in p is the central barrier; tests build it
// as the reference the default shape is checked against.
//
// Waiting is spin-then-park when every rank can hold a core: a waiter
// drops the node lock and polls gen/broken for spinBudget before it
// parks in cond.Wait, so a peer that arrives within the budget releases
// it without an OS thread wake-up. "Every rank" is process-wide: the
// world must fit in GOMAXPROCS at construction, and at each wait so must
// the ranks of all worlds running at that moment (liveRanks) — a
// serving registry runs many small worlds at once. Otherwise the ranks
// outnumber the Ps, a spinning waiter would only steal the P its
// releaser needs, and the waiter parks at once.

// spinBudget bounds one spin; spinYield is how many polls run between
// runtime.Gosched calls (and clock reads). The budget covers most of
// the per-crossing waits of a cold partition at p=2 (DESIGN.md,
// "Scaling invariants").
const (
	spinBudget = 50 * time.Microsecond
	spinYield  = 16
)

// liveRanks counts the rank goroutines of every World inside Run, across
// the process; a tree barrier's waiters spin only while it is at most
// the GOMAXPROCS their world was built under.
var liveRanks atomic.Int64

// bnode is one node of the tree: a counter guarded by its own lock,
// with a generation number for sense reversal. gen and broken are only
// written under mu; they are atomics so a spinning waiter can poll them
// without it.
type bnode struct {
	mu     sync.Mutex
	cond   *sync.Cond
	expect int
	count  int
	gen    atomic.Uint64
	broken atomic.Bool
	cause  error // abort delivered to waiters; nil = bare ErrBroken
	// Pad to a cache line so leaf nodes don't false-share.
	_ [24]byte
}

// spin polls n, without its lock, until the episode that started at
// gen is released or broken, or spinBudget has passed. The caller
// re-takes the lock and re-checks under it either way: the lock, not
// the poll, carries the happens-before edge of the release.
func (n *bnode) spin(gen uint64) {
	start := time.Now()
	for i := 1; n.gen.Load() == gen && !n.broken.Load(); i++ {
		if i%spinYield == 0 {
			if time.Since(start) > spinBudget {
				return
			}
			runtime.Gosched()
		}
	}
}

// brokenPanic converts a node's recorded cause into the panic value a
// released waiter unwinds with. Call with the cause read under the
// node's lock.
func brokenPanic(cause error) {
	if cause == nil {
		panic(ErrBroken)
	}
	panic(cause)
}

type treeBarrier struct {
	shift  uint  // rank >> shift = leaf index (group size is a power of two)
	spin   bool  // size ≤ procs: waiters may spin before parking
	procs  int64 // GOMAXPROCS at construction
	leaves []bnode
	root   bnode
}

// groupShift is log₂ of a World's group size: ⌈√size⌉ rounded up to a
// power of two, which balances arrival contention (group size) against
// root contention (group count) and makes the rank→leaf mapping a shift.
func groupShift(size int) uint {
	shift := uint(0)
	for 1<<(2*shift) < size {
		shift++
	}
	return shift
}

// newTreeBarrier builds a tree of size ranks in groups of 1<<shift.
func newTreeBarrier(size int, shift uint) *treeBarrier {
	g := 1 << shift
	ng := (size + g - 1) / g
	procs := runtime.GOMAXPROCS(0)
	b := &treeBarrier{
		shift:  shift,
		spin:   size > 1 && size <= procs,
		procs:  int64(procs),
		leaves: make([]bnode, ng),
	}
	for i := range b.leaves {
		n := size - i*g
		if n > g {
			n = g
		}
		b.leaves[i].expect = n
		b.leaves[i].cond = sync.NewCond(&b.leaves[i].mu)
	}
	b.root.expect = ng
	b.root.cond = sync.NewCond(&b.root.mu)
	return b
}

// wait blocks rank until every rank has arrived.
func (b *treeBarrier) wait(rank int) { b.waitWith(rank, nil) }

// spinning reports whether a waiter spins before it parks now: its world
// fits in the Ps, and so do the ranks of every world running.
func (b *treeBarrier) spinning() bool {
	return b.spin && liveRanks.Load() <= b.procs
}

// waitWith is wait with a rendezvous action: the last rank to arrive
// runs fn — with every other rank's pre-arrival writes visible, and its
// own writes visible to every rank on release — before anyone proceeds.
// Collectives use it to fold contributions in a single crossing instead
// of a deposit barrier followed by a publish barrier. A panicking fn
// breaks the barrier: the other ranks are released with ErrBroken and
// the panic propagates from the rank that ran fn.
func (b *treeBarrier) waitWith(rank int, fn func()) {
	leaf := &b.leaves[rank>>b.shift]
	leaf.mu.Lock()
	if leaf.broken.Load() {
		cause := leaf.cause
		leaf.mu.Unlock()
		brokenPanic(cause)
	}
	gen := leaf.gen.Load()
	leaf.count++
	if leaf.count < leaf.expect {
		// Not the group's last arriver: wait for the representative to
		// release this group. No rank of this group can arrive for the
		// *next* episode until that release, so resetting count below
		// cannot race with new arrivals.
		if b.spinning() {
			leaf.mu.Unlock()
			leaf.spin(gen)
			leaf.mu.Lock()
		}
		for gen == leaf.gen.Load() && !leaf.broken.Load() {
			leaf.cond.Wait()
		}
		broken, cause := leaf.broken.Load(), leaf.cause
		leaf.mu.Unlock()
		if broken {
			brokenPanic(cause)
		}
		return
	}
	leaf.count = 0
	leaf.mu.Unlock()

	// Group representative: arrive at the root.
	r := &b.root
	r.mu.Lock()
	if r.broken.Load() {
		cause := r.cause
		r.mu.Unlock()
		brokenPanic(cause)
	}
	rgen := r.gen.Load()
	r.count++
	if r.count == r.expect {
		if fn != nil {
			// A panicking fn must break the barrier, not complete it:
			// waiters are released down their broken path (they panic
			// the abort instead of returning with a stale result), and
			// the original panic propagates to Run's recover, which
			// records it as the world's root cause.
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						r.broken.Store(true)
						r.count = 0
						r.cond.Broadcast()
						r.mu.Unlock()
						b.brkLeaves(nil)
						panic(rec)
					}
				}()
				fn()
			}()
		}
		r.count = 0
		r.gen.Add(1)
		r.cond.Broadcast()
		r.mu.Unlock()
	} else {
		if b.spinning() {
			r.mu.Unlock()
			r.spin(rgen)
			r.mu.Lock()
		}
		for rgen == r.gen.Load() && !r.broken.Load() {
			r.cond.Wait()
		}
		broken, cause := r.broken.Load(), r.cause
		r.mu.Unlock()
		if broken {
			// This group's waiters are released by brk/brkLeaves, which
			// marked every node.
			brokenPanic(cause)
		}
	}

	// Release the group. The lock chain root→leaf makes the rendezvous
	// action's writes visible to every group member on wake-up.
	leaf.mu.Lock()
	leaf.gen.Add(1)
	leaf.cond.Broadcast()
	leaf.mu.Unlock()
}

// brk poisons the barrier: all waiters, and every later arrival, are
// released with a panic carrying cause — the world's *AbortError — or
// the bare ErrBroken sentinel when no cause was recorded yet.
func (b *treeBarrier) brk(cause error) {
	b.root.mu.Lock()
	b.root.broken.Store(true)
	if b.root.cause == nil {
		b.root.cause = cause
	}
	b.root.cond.Broadcast()
	b.root.mu.Unlock()
	b.brkLeaves(cause)
}

func (b *treeBarrier) brkLeaves(cause error) {
	for i := range b.leaves {
		l := &b.leaves[i]
		l.mu.Lock()
		l.broken.Store(true)
		if l.cause == nil {
			l.cause = cause
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}
