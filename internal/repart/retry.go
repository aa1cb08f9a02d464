package repart

// The retry driver: RepartitionWithRetry wraps one threshold-triggered
// warm step in checkpoint/rollback/backoff machinery, so a step that
// dies mid-collective (a rank panic, an injected fault, a cancellation)
// is rolled back to the state it started from and retried on a fresh
// world — converging, when an attempt finally completes, to the exact
// partition a fault-free step would have produced (the checkpoint
// restores every input the step reads, and warm steps are deterministic
// functions of those inputs).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// RetryPolicy bounds the recovery loop of RepartitionWithRetry.
// The zero value is usable: 3 retries, 10ms base backoff doubling to a
// 1s cap, real sleeping.
type RetryPolicy struct {
	// MaxRetries is how many rollback-and-retry cycles follow a failed
	// first attempt (<=0 means 3).
	MaxRetries int
	// BaseBackoff is the pause before the first retry (<=0 means 10ms);
	// it doubles per retry up to MaxBackoff (<=0 means 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep implements the backoff pause; tests substitute a recorder.
	// Nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// backoff returns the bounded exponential pause before retry `attempt`
// (0-based): Base·2^attempt capped at Max.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// RepartitionWithRetry is RepartitionIfAbove under fault tolerance: it
// checkpoints the session, runs the threshold-triggered warm step with
// every world execution cancellable through ctx, and — when the step
// aborts (a rank panic, an injected fault) — rolls the session back to
// the checkpoint, rebuilds the world with the broken world's hooks
// (mpi.World.Rebuild, so an attached fault plan stays armed), waits out
// a bounded exponential backoff, and tries again, up to
// policy.MaxRetries times.
//
// Because the checkpoint restores every input the step reads and warm
// steps are deterministic, the partition a successful retry produces is
// bit-identical to what a fault-free step would have computed.
// Stats.Retries reports how many rollbacks were needed.
//
// Non-abort errors (invalid arguments, no installed partition) are
// returned immediately — retrying cannot fix semantics. A ctx
// cancellation is likewise terminal: a cancel mid-step returns the
// abort (wrapping the context's cause) without a retry, and a context
// cancelled before the step returns its cause, the world unbroken.
func (s *Session) RepartitionWithRetry(ctx context.Context, eps float64, policy RetryPolicy) (partition.P, Stats, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return partition.P{}, Stats{}, false, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	policy = policy.normalized()

	ckpt, err := s.checkpointLocked()
	if err != nil {
		return partition.P{}, Stats{}, false, err
	}
	retries := 0
	for {
		p, st, acted, err := s.repartitionIfAboveLocked(ctx, eps)
		if err == nil {
			st.Retries = retries
			return p, st, acted, nil
		}
		if !errors.Is(err, mpi.ErrBroken) || ctx.Err() != nil || retries >= policy.MaxRetries {
			return partition.P{}, Stats{Retries: retries}, false, err
		}
		policy.Sleep(policy.backoff(retries))
		retries++
		// Roll back: decode the checkpoint into fresh state on a fresh
		// world (the aborted one is permanently poisoned, and the aborted
		// attempt may have left residents mid-update).
		restored, derr := decodeCheckpoint(ckpt)
		if derr != nil {
			return partition.P{}, Stats{Retries: retries}, false, fmt.Errorf("repart: rollback: %w", derr)
		}
		s.installLocked(s.w.Rebuild(), restored)
	}
}
