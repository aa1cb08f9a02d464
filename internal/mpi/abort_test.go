package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAbortErrorChains pins the error-matching contract: an AbortError
// matches ErrBroken (so legacy sentinel checks keep working) and unwraps
// to its cause (so errors.Is reaches ErrInjected and context errors).
func TestAbortErrorChains(t *testing.T) {
	cause := fmt.Errorf("wrapped: %w", ErrInjected)
	err := error(&AbortError{Rank: 7, Cause: cause})
	if !errors.Is(err, ErrBroken) {
		t.Error("AbortError should match ErrBroken")
	}
	if !errors.Is(err, ErrInjected) {
		t.Error("AbortError should unwrap to its cause chain")
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Rank != 7 {
		t.Errorf("errors.As lost the rank: %+v", ae)
	}
	if !strings.Contains(err.Error(), "rank 7") {
		t.Errorf("message should name the rank: %q", err.Error())
	}
	if msg := (&AbortError{Rank: -1, Cause: cause}).Error(); strings.Contains(msg, "rank") {
		t.Errorf("external aborts should not name a rank: %q", msg)
	}
}

// TestRankPanicMidCollectiveHighP is the tentpole's acceptance test: at
// p=1024, a rank that panics while every peer is inside a collective
// must release them all with an *AbortError attributed to the faulting
// rank — no deadlock, no leaked goroutines.
func TestRankPanicMidCollectiveHighP(t *testing.T) {
	const p = 1024
	const victim = 311
	before := runtime.NumGoroutine()
	w := NewWorld(p)
	var aborted atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			defer func() {
				if rec := recover(); rec != nil {
					if err, ok := rec.(error); ok {
						var ae *AbortError
						if errors.As(err, &ae) {
							aborted.Add(1)
						}
					}
					panic(rec)
				}
			}()
			AllreduceSum(c, []float64{1, 2, 3})
			if c.Rank() == victim {
				panic("victim down")
			}
			for i := 0; i < 4; i++ {
				AllreduceSum(c, []float64{4, 5, 6})
			}
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("world deadlocked after rank panic")
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("Run returned %T (%v), want *AbortError", err, err)
	}
	if ae.Rank != victim {
		t.Errorf("abort attributed to rank %d, want %d", ae.Rank, victim)
	}
	if !strings.Contains(err.Error(), "victim down") {
		t.Errorf("cause lost: %v", err)
	}
	// Every surviving rank must have unwound with the typed abort.
	if got := aborted.Load(); got != p-1 {
		t.Errorf("%d ranks observed an *AbortError, want %d", got, p-1)
	}
	// No rank goroutine may be left behind. Allow the runtime a moment
	// to retire exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+8 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+8 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestBrokenWorldStaysBroken: recovery is a fresh world, never a reused
// one — a later Run on a broken world fails immediately with the same
// abort instead of deadlocking half-initialized ranks.
func TestBrokenWorldStaysBroken(t *testing.T) {
	w := NewWorld(4)
	first := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		c.Barrier()
	})
	if first == nil {
		t.Fatal("expected abort")
	}
	second := w.Run(func(c *Comm) { c.Barrier() })
	var ae *AbortError
	if !errors.As(second, &ae) || ae.Rank != 2 {
		t.Fatalf("second Run = %v, want the original rank-2 abort", second)
	}
	if w.Err() == nil {
		t.Error("Err() should report the abort")
	}
}

// TestRunCtx covers the context-cancellation surface: a cancel mid-run
// aborts the world with the context's cause, an already-cancelled
// context returns its cause before any rank body runs and leaves the
// world healthy, and a nil one is plain Run.
func TestRunCtx(t *testing.T) {
	t.Run("cancel mid-run", func(t *testing.T) {
		w := NewWorld(8)
		ctx, cancel := context.WithCancelCause(context.Background())
		stop := errors.New("deadline budget exhausted")
		entered := make(chan struct{})
		var once atomic.Bool
		go func() {
			<-entered
			cancel(stop)
		}()
		err := w.RunCtx(ctx, func(c *Comm) {
			if once.CompareAndSwap(false, true) {
				close(entered)
			}
			for {
				c.Barrier()
			}
		})
		if !errors.Is(err, stop) || !errors.Is(err, ErrBroken) {
			t.Fatalf("RunCtx = %v, want abort wrapping the cancel cause", err)
		}
	})
	t.Run("pre-cancelled", func(t *testing.T) {
		w := NewWorld(4)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := w.RunCtx(ctx, func(c *Comm) {
			ran.Add(1)
			c.Barrier()
		})
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrBroken) {
			t.Fatalf("RunCtx = %v, want context.Canceled and no ErrBroken", err)
		}
		if ran.Load() != 0 {
			t.Errorf("%d rank bodies ran under a dead context", ran.Load())
		}
		if w.Err() != nil {
			t.Fatalf("a dead context broke the world: %v", w.Err())
		}
		if err := w.Run(func(c *Comm) {
			ran.Add(1)
			AllreduceSum(c, []int64{1})
		}); err != nil || ran.Load() != 4 {
			t.Fatalf("rerun after a dead context: err %v, %d of 4 rank bodies ran", err, ran.Load())
		}
	})
	t.Run("uncancelled context passes through", func(t *testing.T) {
		w := NewWorld(4)
		if err := w.RunCtx(context.Background(), func(c *Comm) {
			AllreduceSum(c, []int64{1})
		}); err != nil {
			t.Fatalf("RunCtx = %v, want nil", err)
		}
	})
	// A cancel that lands after the last collective races Run's
	// return: RunCtx may report the abort or nil, but a nil return must
	// leave a healthy world, or the next run fails with ErrBroken.
	t.Run("late cancel leaves a finished run alone", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			w := NewWorld(4)
			ctx, cancel := context.WithCancel(context.Background())
			err := w.RunCtx(ctx, func(c *Comm) {
				AllreduceSum(c, []int64{1})
				if c.Rank() == 0 {
					cancel()
				}
			})
			if err == nil && w.Err() != nil {
				t.Fatalf("run %d: RunCtx = nil on a broken world (%v)", i, w.Err())
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: RunCtx = %v, want nil or the cancel", i, err)
			}
		}
	})
	t.Run("nil context is Run", func(t *testing.T) {
		w := NewWorld(4)
		var ran atomic.Int64
		if err := w.RunCtx(nil, func(c *Comm) {
			ran.Add(1)
			AllreduceSum(c, []int64{1})
		}); err != nil || ran.Load() != 4 {
			t.Fatalf("RunCtx(nil) = %v after %d rank bodies, want nil after 4", err, ran.Load())
		}
	})
}

// TestFaultPlanPanicFault: a scheduled FaultPanic fires at its exact
// (rank, episode) coordinate, aborts the world with the injected error,
// and is attributed to the scheduled rank.
func TestFaultPlanPanicFault(t *testing.T) {
	const p = 16
	plan := NewFaultPlan(Fault{Rank: 5, Episode: 2, Kind: FaultPanic})
	w := NewWorld(p)
	w.SetHooks(plan)
	var reached atomic.Int64
	err := w.Run(func(c *Comm) {
		for i := 0; i < 4; i++ {
			AllreduceSum(c, []float64{1})
			if c.Rank() == 5 {
				reached.Store(int64(i + 1))
			}
		}
	})
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("Run returned %T (%v), want *AbortError", err, err)
	}
	if ae.Rank != 5 {
		t.Errorf("fault attributed to rank %d, want 5", ae.Rank)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("abort should wrap ErrInjected: %v", err)
	}
	// Episode 2 is the third collective entry: the rank completed
	// episodes 0 and 1 and died entering the third.
	if got := reached.Load(); got != 2 {
		t.Errorf("rank 5 completed %d collectives, want 2", got)
	}
	if plan.Fired() != 1 {
		t.Errorf("plan recorded %d firings, want 1", plan.Fired())
	}
}

// TestFaultPlanTransientDisarms: a transient fault fires on the first
// world and disarms; the same plan installed on a fresh world (episodes
// restart at zero, firing counts carry over) lets the retry pass. This
// is the contract the session retry driver builds on.
func TestFaultPlanTransientDisarms(t *testing.T) {
	plan := NewFaultPlan(Fault{Rank: 1, Episode: 1, Kind: FaultTransient})
	body := func(c *Comm) {
		for i := 0; i < 3; i++ {
			AllreduceSum(c, []float64{2})
		}
	}
	w1 := NewWorld(4)
	w1.SetHooks(plan)
	if err := w1.Run(body); !errors.Is(err, ErrInjected) {
		t.Fatalf("first run = %v, want injected abort", err)
	}
	w2 := NewWorld(4)
	w2.SetHooks(plan)
	if err := w2.Run(body); err != nil {
		t.Fatalf("retry on fresh world = %v, want success (fault disarmed)", err)
	}
	if plan.Fired() != 1 {
		t.Errorf("plan fired %d times, want 1", plan.Fired())
	}
}

// TestFaultPlanTransientFires: Fires>1 keeps a transient armed for that
// many worlds before it disarms.
func TestFaultPlanTransientFires(t *testing.T) {
	plan := NewFaultPlan(Fault{Rank: 0, Episode: 0, Kind: FaultTransient, Fires: 2})
	body := func(c *Comm) { c.Barrier() }
	for attempt := 0; attempt < 3; attempt++ {
		w := NewWorld(2)
		w.SetHooks(plan)
		err := w.Run(body)
		if attempt < 2 && !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d = %v, want injected abort", attempt, err)
		}
		if attempt == 2 && err != nil {
			t.Fatalf("attempt 2 = %v, want success after 2 firings", err)
		}
	}
}

// TestFaultPlanDelay: a FaultDelay stalls the rank through the plan's
// injectable Sleep (a recorder here — no wall-clock in the suite) and
// the run completes normally.
func TestFaultPlanDelay(t *testing.T) {
	plan := NewFaultPlan(Fault{Rank: 3, Episode: 1, Kind: FaultDelay, Delay: 7 * time.Millisecond})
	var slept atomic.Int64
	plan.Sleep = func(d time.Duration) { slept.Add(int64(d)) }
	w := NewWorld(8)
	w.SetHooks(plan)
	if err := w.Run(func(c *Comm) {
		c.Barrier()
		AllreduceSum(c, []float64{1})
	}); err != nil {
		t.Fatalf("delayed run should succeed, got %v", err)
	}
	if got := time.Duration(slept.Load()); got != 7*time.Millisecond {
		t.Errorf("slept %v, want 7ms", got)
	}
	if plan.Delayed() != 1 {
		t.Errorf("Delayed() = %d, want 1", plan.Delayed())
	}
	if plan.Fired() != 0 {
		t.Errorf("a delay is not a failure: Fired() = %d", plan.Fired())
	}
}

// TestRandomFaultPlanDeterministic: the same seed yields the same fault
// schedule — two runs of the same program abort identically, with no
// global randomness or wall-clock consulted.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	run := func() string {
		plan := RandomFaultPlan(42, 8, 6, 3, FaultPanic)
		plan.Sleep = func(time.Duration) {}
		w := NewWorld(8)
		w.SetHooks(plan)
		err := w.Run(func(c *Comm) {
			for i := 0; i < 8; i++ {
				AllreduceSum(c, []float64{1})
			}
		})
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different aborts:\n  %s\n  %s", a, b)
	}
	if a == "<nil>" {
		t.Error("expected at least one panic fault to fire")
	}
}

// TestHookEpisodesCountAllCollectives pins the episode coordinate
// system: every collective entry and bare barrier advances the per-rank
// counter exactly once, so fault coordinates are stable across runs.
func TestHookEpisodesCountAllCollectives(t *testing.T) {
	var maxEp atomic.Int64
	hook := hookFunc(func(rank int, ep int64) error {
		for {
			cur := maxEp.Load()
			if ep <= cur || maxEp.CompareAndSwap(cur, ep) {
				return nil
			}
		}
	})
	w := NewWorld(4)
	w.SetHooks(hook)
	if err := w.Run(func(c *Comm) {
		c.Barrier()                       // episode 0
		AllreduceSum(c, []float64{1})     // episode 1
		AllgatherFlat(c, []int{c.Rank()}) // episode 2
		ExscanSum(c, int64(1))            // episode 3
		ReduceScalarSum(c, int64(1))      // episode 4
	}); err != nil {
		t.Fatal(err)
	}
	if got := maxEp.Load(); got != 4 {
		t.Errorf("max episode = %d, want 4 (5 collective entries)", got)
	}
}

type hookFunc func(rank int, episode int64) error

func (f hookFunc) BeforeCollective(rank int, episode int64) error { return f(rank, episode) }
