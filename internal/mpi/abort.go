package mpi

import (
	"context"
	"errors"
	"fmt"
)

// AbortError is the typed failure every rank of a broken world observes:
// collectives entered (or already waited in) after the abort panic with
// the same *AbortError value, and Run returns it. It satisfies errors.Is(err,
// ErrBroken) so pre-existing sentinel checks keep working, and Unwrap
// exposes the root cause (the panic value of the failing rank, the
// context error of a cancellation, or an injected fault wrapping
// ErrInjected).
type AbortError struct {
	// Rank is the simulated rank whose failure broke the world, or -1
	// when the abort came from outside SPMD code (World.Abort, a
	// cancelled RunCtx context).
	Rank int
	// Cause is the underlying failure.
	Cause error
}

// Error implements error.
func (e *AbortError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("mpi: world aborted: %v", e.Cause)
	}
	return fmt.Sprintf("mpi: world aborted by rank %d: %v", e.Rank, e.Cause)
}

// Unwrap exposes the root cause to errors.Is/As chains.
func (e *AbortError) Unwrap() error { return e.Cause }

// Is reports ErrBroken as a match: an aborted world is a broken world,
// and callers that only care about "did the runtime die" keep their
// errors.Is(err, mpi.ErrBroken) checks.
func (e *AbortError) Is(target error) bool { return target == ErrBroken }

// asError converts an arbitrary panic value into an error, preserving
// error values (and therefore their Is/As chains) as-is.
func asError(rec any) error {
	if err, ok := rec.(error); ok {
		return err
	}
	return fmt.Errorf("%v", rec)
}

// Abort breaks the world from outside its SPMD code: every rank parked
// in a collective (or arriving at one later) panics with an *AbortError
// whose Rank is -1, and Run returns that error. Aborting an already-broken world is a no-op (the first
// cause wins). This is the cancellation entry point a driving goroutine
// uses to stop a runaway phase; RunCtx wires it to a context.
func (w *World) Abort(cause error) {
	if cause == nil {
		cause = errors.New("mpi: aborted")
	}
	w.breakWorld(&AbortError{Rank: -1, Cause: cause}, true)
}

// Err returns the abort error of a broken world (nil while healthy).
func (w *World) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// RunCtx is Run under a context: if ctx is cancelled while ranks are
// executing, the world is aborted — every rank unwinds out of its next
// (or current) collective with an *AbortError wrapping the context's
// cause — and RunCtx returns that error. A context that is already
// cancelled aborts before any rank body runs.
func (w *World) RunCtx(ctx context.Context, f func(c *Comm)) error {
	if err := ctx.Err(); err != nil {
		w.Abort(context.Cause(ctx))
		return w.Err()
	}
	finished := make(chan struct{})
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		select {
		case <-ctx.Done():
			w.Abort(context.Cause(ctx))
		case <-finished:
		}
	}()
	err := w.Run(f)
	close(finished)
	<-watcher
	return err
}

// ---------------------------------------------------------------------
// Runtime hooks: the interception points a transport implementation (or
// the fault injector) attaches to. The in-process runtime calls them at
// the same places a TCP/shared-memory transport would surface real
// failures — on entry to every collective — so failure-handling code
// written against these hooks carries over unchanged.

// Hooks intercepts runtime events on behalf of a transport or a fault
// injector. Implementations must be safe for concurrent use by all
// ranks.
type Hooks interface {
	// BeforeCollective runs each time a rank enters a collective
	// operation or a bare barrier. episode is that rank's entry count
	// (0-based, monotone per rank per world). Returning a non-nil error
	// fails the rank at that point exactly like a rank panic: the world
	// aborts and every peer observes an *AbortError whose cause is the
	// returned error.
	BeforeCollective(rank int, episode int64) error
}

// SetHooks installs h as the world's runtime hooks (nil removes them).
// Must be called before Run. The zero-alloc collective contract is
// unaffected: with no hooks installed the per-collective cost is one nil
// check, and the hook path allocates only on failure.
func (w *World) SetHooks(h Hooks) {
	w.hooks = h
	if h != nil && len(w.episodes) != w.size {
		w.episodes = make([]int64, w.size)
	}
}

// hook dispatches the BeforeCollective hook for one rank. A hook error
// unwinds the rank with the error as panic value; Run's recover turns it
// into this rank's *AbortError, so an injected fault is attributed to
// the rank it was scheduled on.
func (w *World) hook(rank int) {
	if w.hooks == nil {
		return
	}
	ep := w.episodes[rank]
	w.episodes[rank] = ep + 1
	if err := w.hooks.BeforeCollective(rank, ep); err != nil {
		panic(err)
	}
}
