package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var worldSizes = []int{1, 2, 3, 4, 7}

func TestBarrierOrdering(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		var phase int32
		err := w.Run(func(c *Comm) {
			// All ranks must observe phase 0 before any rank moves on.
			if atomic.LoadInt32(&phase) != 0 {
				t.Errorf("p=%d rank %d: phase advanced early", p, c.Rank())
			}
			c.Barrier()
			if c.Rank() == 0 {
				atomic.StoreInt32(&phase, 1)
			}
			c.Barrier()
			if atomic.LoadInt32(&phase) != 1 {
				t.Errorf("p=%d rank %d: write before barrier not visible", p, c.Rank())
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			in := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
			out := AllreduceSum(c, in)
			wantA := int64(p * (p - 1) / 2)
			var wantC int64
			for r := 0; r < p; r++ {
				wantC += int64(r * r)
			}
			if out[0] != wantA || out[1] != int64(p) || out[2] != wantC {
				t.Errorf("p=%d rank %d: got %v", p, c.Rank(), out)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceSumDeterministicFloats(t *testing.T) {
	// Summation order must be identical on every rank so that replicated
	// state (cluster centers, influence values) stays bit-identical.
	p := 5
	w := NewWorld(p)
	results := make([]float64, p)
	err := w.Run(func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		in := []float64{rng.Float64() * 1e-7, rng.Float64() * 1e9}
		out := AllreduceSum(c, in)
		results[c.Rank()] = out[0] + out[1]
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if results[r] != results[0] {
			t.Fatalf("rank %d result %g differs from rank 0 %g", r, results[r], results[0])
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	p := 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		in := []float64{float64(c.Rank()), -float64(c.Rank())}
		mx := AllreduceMax(c, in)
		mn := AllreduceMin(c, in)
		if mx[0] != 3 || mx[1] != 0 {
			t.Errorf("max: %v", mx)
		}
		if mn[0] != 0 || mn[1] != -3 {
			t.Errorf("min: %v", mn)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherVariableLengths(t *testing.T) {
	p := 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		in := make([]int32, c.Rank()) // rank r contributes r elements
		for i := range in {
			in[i] = int32(c.Rank()*100 + i)
		}
		out := Allgather(c, in)
		for r := 0; r < p; r++ {
			if len(out[r]) != r {
				t.Errorf("rank %d: out[%d] len %d", c.Rank(), r, len(out[r]))
			}
			for i, v := range out[r] {
				if v != int32(r*100+i) {
					t.Errorf("rank %d: out[%d][%d] = %d", c.Rank(), r, i, v)
				}
			}
		}
		flat := AllgatherFlat(c, in)
		if len(flat) != p*(p-1)/2 {
			t.Errorf("flat len %d", len(flat))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherScalarAndReduceScalar(t *testing.T) {
	p := 3
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		if s := ReduceScalarSum(c, int64(c.Rank()+1)); s != 6 {
			t.Errorf("ReduceScalarSum = %d", s)
		}
		if m := ReduceScalarMax(c, float64(c.Rank())); m != 2 {
			t.Errorf("ReduceScalarMax = %g", m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			send := make([][]int, p)
			for dst := 0; dst < p; dst++ {
				send[dst] = []int{c.Rank()*1000 + dst}
			}
			recv := Alltoall(c, send)
			for src := 0; src < p; src++ {
				want := src*1000 + c.Rank()
				if len(recv[src]) != 1 || recv[src][0] != want {
					t.Errorf("p=%d rank %d: recv[%d] = %v, want [%d]", p, c.Rank(), src, recv[src], want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlltoallFlat cross-checks the flat-buffer all-to-all against the
// sliced Alltoall on ragged per-pair loads (including empty segments).
func TestAlltoallFlat(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			// Segment for dst has (rank+dst)%3 elements rank*1000+dst.
			send := make([][]int, p)
			var flat []int
			counts := make([]int, p)
			for dst := 0; dst < p; dst++ {
				n := (c.Rank() + dst) % 3
				counts[dst] = n
				for j := 0; j < n; j++ {
					send[dst] = append(send[dst], c.Rank()*1000+dst)
					flat = append(flat, c.Rank()*1000+dst)
				}
			}
			wantChunks := Alltoall(c, send)
			got, gotCounts := AlltoallFlat(c, flat, counts)
			var want []int
			for src := 0; src < p; src++ {
				if gotCounts[src] != len(wantChunks[src]) {
					t.Errorf("p=%d rank %d: recvCounts[%d] = %d, want %d",
						p, c.Rank(), src, gotCounts[src], len(wantChunks[src]))
				}
				want = append(want, wantChunks[src]...)
			}
			if len(got) != len(want) {
				t.Fatalf("p=%d rank %d: %d elements, want %d", p, c.Rank(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("p=%d rank %d: element %d = %d, want %d", p, c.Rank(), i, got[i], want[i])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlltoallFlatTrafficBytes pins the stats contract: only off-rank
// elements count, at the element's in-memory size.
func TestAlltoallFlatTrafficBytes(t *testing.T) {
	p := 3
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		// Every rank sends 2 float64 to each rank (incl. itself).
		flat := make([]float64, 2*p)
		counts := []int{2, 2, 2}
		AlltoallFlat(c, flat, counts)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range w.Stats() {
		want := int64(2*(p-1)) * 8
		if st.CollectiveBytes != want {
			t.Errorf("rank %d: CollectiveBytes = %d, want %d", r, st.CollectiveBytes, want)
		}
	}
}

// TestAlltoallCols cross-checks the single-collective multi-column
// exchange against per-column AlltoallFlat calls, and pins its stats:
// one collective, WireBytes-style byte accounting.
func TestAlltoallCols(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			counts := make([]int, p)
			total := 0
			for dst := 0; dst < p; dst++ {
				counts[dst] = (c.Rank() + 2*dst) % 3
				total += counts[dst]
			}
			u64 := make([]uint64, total)
			i64 := make([]int64, total)
			f0 := make([]float64, total)
			f1 := make([]float64, total)
			for i := 0; i < total; i++ {
				u64[i] = uint64(c.Rank()*1000 + i)
				i64[i] = int64(-c.Rank()*1000 - i)
				f0[i] = float64(c.Rank()) + float64(i)/100
				f1[i] = -f0[i]
			}
			gotU, gotI, gotF, gotCounts := AlltoallCols(c, u64, i64, [][]float64{f0, f1}, counts)
			wantU, wantCounts := AlltoallFlat(c, u64, counts)
			wantI, _ := AlltoallFlat(c, i64, counts)
			wantF0, _ := AlltoallFlat(c, f0, counts)
			wantF1, _ := AlltoallFlat(c, f1, counts)
			for r := range wantCounts {
				if gotCounts[r] != wantCounts[r] {
					t.Errorf("p=%d rank %d: counts[%d] = %d, want %d", p, c.Rank(), r, gotCounts[r], wantCounts[r])
				}
			}
			for i := range wantU {
				if gotU[i] != wantU[i] || gotI[i] != wantI[i] || gotF[0][i] != wantF0[i] || gotF[1][i] != wantF1[i] {
					t.Errorf("p=%d rank %d: record %d differs", p, c.Rank(), i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlltoallColsSingleCollective pins the latency contract: the whole
// multi-column exchange costs one collective, not one per column.
func TestAlltoallColsSingleCollective(t *testing.T) {
	p := 3
	w := NewWorld(p)
	if err := w.Run(func(c *Comm) {
		counts := []int{1, 1, 1}
		AlltoallCols(c, make([]uint64, 3), make([]int64, 3),
			[][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)}, counts)
	}); err != nil {
		t.Fatal(err)
	}
	for r, st := range w.Stats() {
		if st.Collectives != 1 {
			t.Errorf("rank %d: %d collectives, want 1", r, st.Collectives)
		}
		// 2 off-rank records × (8+8+3·8) bytes.
		if want := int64(2 * (8 + 8 + 3*8)); st.CollectiveBytes != want {
			t.Errorf("rank %d: %d bytes, want %d", r, st.CollectiveBytes, want)
		}
	}
}

func TestAlltoallFlatBadCountsPanics(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		AlltoallFlat(c, []int{1, 2, 3}, []int{1, 1}) // counts sum 2 ≠ len 3
	})
	if err == nil {
		t.Fatal("mismatched counts did not break the world")
	}
}

func TestAlltoallCopiesData(t *testing.T) {
	p := 2
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		send := [][]int{{c.Rank()}, {c.Rank()}}
		recv := Alltoall(c, send)
		send[0][0] = -99 // mutate after return; receivers must not see it
		send[1][0] = -99
		c.Barrier()
		other := 1 - c.Rank()
		if recv[other][0] != other {
			t.Errorf("rank %d: received data aliased sender buffer", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExscanSum(t *testing.T) {
	p := 6
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		got := ExscanSum(c, int64(c.Rank()+1)) // contributions 1..p
		want := int64(c.Rank() * (c.Rank() + 1) / 2)
		if got != want {
			t.Errorf("rank %d: exscan = %d, want %d", c.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	p := 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		// Ring: send to (r+1) mod p, receive from (r-1+p) mod p.
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		c.Send(next, c.Rank()*7, 8)
		got := c.Recv(prev).(int)
		if got != prev*7 {
			t.Errorf("rank %d: got %d want %d", c.Rank(), got, prev*7)
		}
		// Program order per pair: two messages arrive in send order.
		c.Send(next, "first", 5)
		c.Send(next, "second", 6)
		if a := c.Recv(prev).(string); a != "first" {
			t.Errorf("rank %d: order violated, got %q", c.Rank(), a)
		}
		if b := c.Recv(prev).(string); b != "second" {
			t.Errorf("rank %d: order violated, got %q", c.Rank(), b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulation(t *testing.T) {
	p := 3
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		AllreduceSum(c, []float64{1, 2})
		c.Barrier()
		c.AddOps(42)
		if c.Rank() == 0 {
			c.Send(1, []byte{1, 2, 3}, 3)
		}
		if c.Rank() == 1 {
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st[0].Collectives != 1 || st[0].CollectiveBytes != 16 {
		t.Errorf("rank 0 collectives: %+v", st[0])
	}
	if st[0].Barriers != 1 {
		t.Errorf("rank 0 barriers: %d", st[0].Barriers)
	}
	if st[0].MsgsSent != 1 || st[0].BytesSent != 3 {
		t.Errorf("rank 0 p2p: %+v", st[0])
	}
	if st[1].MsgsSent != 0 {
		t.Errorf("rank 1 sent nothing but MsgsSent=%d", st[1].MsgsSent)
	}
	for r := 0; r < p; r++ {
		if st[r].ModeledCommSec <= 0 {
			t.Errorf("rank %d: no modeled time", r)
		}
	}
	if st[0].Ops != 42 {
		t.Errorf("Ops = %d", st[0].Ops)
	}

	var total Stats
	for _, s := range st {
		total.Add(s)
	}
	if total.Collectives != int64(p) {
		t.Errorf("total collectives %d", total.Collectives)
	}

	w.ResetStats()
	for _, s := range w.Stats() {
		if s != (Stats{}) {
			t.Errorf("ResetStats left %+v", s)
		}
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	if m.CollectiveLatency(1) != 0 {
		t.Errorf("latency p=1 should be 0, got %g", m.CollectiveLatency(1))
	}
	if m.CollectiveLatency(2) != m.AlphaSec {
		t.Errorf("latency p=2 = %g", m.CollectiveLatency(2))
	}
	if m.CollectiveLatency(1024) != 10*m.AlphaSec {
		t.Errorf("latency p=1024 = %g", m.CollectiveLatency(1024))
	}
	if got := m.P2PTime(2e9); got <= 1.0 {
		t.Errorf("P2PTime(2GB) = %g, want > 1s", got)
	}
	comp, comm := m.ModeledTime([]Stats{{Ops: 100}, {Ops: 500, ModeledCommSec: 0.5}})
	if comp != 500*m.OpSec || comm != 0.5 {
		t.Errorf("ModeledTime = %g, %g", comp, comm)
	}
}

func TestPanicBreaksWorld(t *testing.T) {
	p := 3
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("deliberate failure")
		}
		// Other ranks block in a barrier and must be released.
		c.Barrier()
		c.Barrier()
	})
	if err == nil {
		t.Fatal("expected error from panicked rank")
	}
	if !strings.Contains(err.Error(), "deliberate failure") && !strings.Contains(err.Error(), "broken") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func TestAlltoallWrongSizePanics(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		Alltoall(c, [][]int{{1}}) // wrong length
	})
	if err == nil {
		t.Fatal("expected panic->error for wrong Alltoall shape")
	}
}

func BenchmarkAllreduce64(b *testing.B) {
	w := NewWorld(8)
	in := make([]float64, 64)
	b.ResetTimer()
	if err := w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			AllreduceSum(c, in)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// A panicking rendezvous action (waitWith fn) must break the barrier:
// waiting ranks get ErrBroken instead of returning with a stale result.
// Every rank passes the same fn (as the collectives do); exactly one —
// the last arriver — runs it and propagates its panic, and the rest are
// released with ErrBroken. Both barrier implementations must agree, at
// small p and at the p=64 / p=1024 scales where the tree barrier has
// real leaf groups and a contended root. The p=2 arm is built under a
// GOMAXPROCS that makes the tree's waiter spin before it parks.
func TestBarrierRendezvousPanicBreaks(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) *treeBarrier
	}{
		{"tree", func(p int) *treeBarrier { return newTreeBarrier(p, groupShift(p)) }},
		{"central", oneLeafBarrier},
	} {
		for _, p := range []int{2, 3, 64, 1024} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				if p == 2 {
					spinProcs(t, p)
				}
				b := tc.mk(p)
				res := make(chan any, p)
				for r := 0; r < p; r++ {
					go func(rank int) {
						defer func() { res <- recover() }()
						b.waitWith(rank, func() { panic("fold boom") })
					}(r)
				}
				var booms, broken int
				for i := 0; i < p; i++ {
					switch v := <-res; v {
					case "fold boom":
						booms++
					case ErrBroken:
						broken++
					default:
						t.Fatalf("unexpected recover value %v", v)
					}
				}
				if booms != 1 || broken != p-1 {
					t.Fatalf("booms=%d broken=%d, want 1 and %d", booms, broken, p-1)
				}
			})
		}
	}
}

// A rank that dies while its peers are inside AlltoallCols must release
// them with the abort: the multi-column exchange parks every peer in a
// single rendezvous crossing, and the poison has to reach both ranks
// already waiting and ranks that arrive later. Covered over both barrier
// implementations at p=64 and p=1024, and at p=2 under a GOMAXPROCS that
// makes the tree's waiter spin: there the victim dies 10 µs after its
// peer entered the exchange — well inside spinBudget, so the poison
// normally reaches a waiter that is still spinning (a descheduled peer
// may reach the barrier only later, which the park path covers).
func TestPanicDuringAlltoallColsBreaks(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) *World
	}{
		{"tree", NewWorld},
		{"central", centralWorld},
	} {
		for _, p := range []int{2, 64, 1024} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				if p == 2 {
					spinProcs(t, p)
				}
				w := tc.mk(p)
				victim := p / 2
				var released, entered atomic.Int64
				err := w.Run(func(c *Comm) {
					defer func() {
						if rec := recover(); rec != nil {
							released.Add(1)
							panic(rec)
						}
					}()
					if c.Rank() == victim {
						if p == 2 {
							for entered.Load() == 0 {
								runtime.Gosched()
							}
							for start := time.Now(); time.Since(start) < 10*time.Microsecond; {
							}
						}
						panic("alltoall victim")
					}
					entered.Add(1)
					counts := make([]int, p)
					for dst := range counts {
						counts[dst] = 1
					}
					AlltoallCols(c, make([]uint64, p), make([]int64, p),
						[][]float64{make([]float64, p)}, counts)
				})
				var ae *AbortError
				if !errors.As(err, &ae) {
					t.Fatalf("Run returned %T (%v), want *AbortError", err, err)
				}
				if ae.Rank != victim {
					t.Errorf("abort attributed to rank %d, want %d", ae.Rank, victim)
				}
				if !errors.Is(err, ErrBroken) {
					t.Error("AbortError must match ErrBroken under errors.Is")
				}
				if got := released.Load(); got != int64(p) {
					t.Errorf("%d ranks unwound with a panic, want all %d", got, p)
				}
			})
		}
	}
}
