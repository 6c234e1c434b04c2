// Resilience machinery for the serving path: per-job retry with
// exponential backoff and jitter and a per-shard circuit breaker. All
// of it keys on the typed errors of internal/fault — completed jobs
// stay bit-identical to fault-free runs because injection only ever
// delays or kills an attempt, never corrupts it.
package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrBreakerOpen is returned (without running the job) while a shard's
// circuit breaker is open; HTTP maps it to 503 so clients back off.
var ErrBreakerOpen = errors.New("server: circuit breaker open")

// Breaker states, exported on the caped_breaker_state gauge.
const (
	breakerClosed int64 = iota
	breakerHalfOpen
	breakerOpen
)

// Breaker is a circuit breaker over final job outcomes. Threshold
// consecutive failures open it; after cooldown one probe job is let
// through (half-open), and its outcome closes or re-opens the circuit.
// A zero threshold disables the breaker entirely. The server wraps one
// around every pool shard, and a cluster coordinator wraps one around
// every remote worker — a remote worker is just a shard that can fail.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	// onTransition, when non-nil, observes every state change (flight
	// recorder, logs). Called with b.mu held: implementations must not
	// call back into the breaker.
	onTransition func(from, to int64)

	mu       sync.Mutex
	state    int64
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and half-opens after cooldown (threshold <= 0 disables it).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// SetOnTransition installs the state-change observer (flight recorder,
// logs). The hook runs with the breaker's lock held: implementations
// must not call back into the breaker.
func (b *Breaker) SetOnTransition(f func(from, to int64)) { b.onTransition = f }

// BreakerStateName names a breaker state for events and logs.
func BreakerStateName(s int64) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// setState transitions the breaker, firing the observer hook. Caller
// holds b.mu.
func (b *Breaker) setState(to int64) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// Allow reports whether a job may run now.
func (b *Breaker) Allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open: exactly one probe in flight
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// OnResult records a job's final outcome (not individual retry
// attempts: a job saved by its retries is a success).
func (b *Breaker) OnResult(ok bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.setState(breakerClosed)
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.setState(breakerOpen)
		b.openedAt = time.Now()
		b.failures = 0
	}
}

// StateVal samples the state for the gauge (0 closed, 1 half-open, 2
// open).
func (b *Breaker) StateVal() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// backoffDelay computes the sleep before retry attempt+1: exponential
// from the base, capped at the max, jittered uniformly over 0.5x–1.5x
// so synchronized retry storms spread out.
func backoffDelay(opts Options, attempt int) time.Duration {
	d := opts.RetryBaseDelay
	for i := 0; i < attempt && d < opts.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > opts.RetryMaxDelay {
		d = opts.RetryMaxDelay
	}
	if d <= 0 {
		return 0
	}
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}

// sleepCtx sleeps for d or until ctx is done; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
