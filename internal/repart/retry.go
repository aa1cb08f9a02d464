package repart

// The retry driver: RepartitionWithRetry repeats one threshold-triggered
// warm step with a bounded backoff between attempts. A step that dies
// mid-collective (a rank panic, an injected fault) leaves the session as
// it was before the step, on a rebuilt world (the Session's recovery
// rule), so the next attempt replays it — converging, when an attempt
// finally completes, to the exact partition a fault-free step would have
// produced (warm steps are deterministic functions of the state the
// session keeps outside its ranks).

import (
	"context"
	"errors"
	"time"

	"geographer/internal/mpi"
	"geographer/internal/partition"
)

// RetryPolicy bounds the recovery loop of RepartitionWithRetry.
// The zero value is usable: 3 retries, 10ms base backoff doubling to a
// 1s cap, real sleeping.
type RetryPolicy struct {
	// MaxRetries is how many retries may follow a failed first attempt
	// (<=0 means 3).
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
// runs the threshold-triggered warm step with every world execution
// cancellable through ctx, and — when the step aborts (a rank panic, an
// injected fault) — waits out a bounded exponential backoff and runs it
// again, up to policy.MaxRetries times. Each abort has already left the
// session as it was before the step, on a world rebuilt with the broken
// world's hooks (mpi.World.Rebuild, so an attached fault plan stays
// armed).
//
// Warm steps are deterministic functions of that state, so the
// partition a successful retry produces is bit-identical to what a
// fault-free step would have computed. Stats.Retries reports how many
// retries were needed.
//
// Non-abort errors (invalid arguments, no installed partition) are
// returned immediately — retrying cannot fix semantics. A ctx
// cancellation is likewise terminal: a cancel mid-step returns the
// abort (wrapping the context's cause) without a retry, and a context
// cancelled before the step returns its cause, the world unbroken;
// either way the session stays usable.
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
	for retries := 0; ; retries++ {
		p, st, acted, err := s.repartitionIfAboveLocked(ctx, eps)
		if err == nil {
			st.Retries = retries
			return p, st, acted, nil
		}
		if !errors.Is(err, mpi.ErrBroken) || ctx.Err() != nil || retries >= policy.MaxRetries {
			return partition.P{}, Stats{Retries: retries}, false, err
		}
		policy.Sleep(policy.backoff(retries))
	}
}
