// Package netpool promotes the procpool frame protocol from
// stdin/stdout pipes to TCP: a Dialer/Conn pair on the coordinator
// side, a Server wrapping procpool.ServeTasks on the worker side, the
// retry policy both sides of the flow's supervisor share (exponential
// Backoff, per-host circuit Breaker), and a deterministic chaos Proxy —
// the network analog of flow.FaultPlan — for exercising every link
// failure mode on a scripted schedule.
//
// The package deliberately adds no protocol of its own beyond the
// bidirectional Hello handshake: frames on the wire are exactly the
// CRC-guarded gob frames of internal/procpool, so a TCP session and a
// pipe session are interchangeable to both the supervisor and the
// worker loop.
package netpool

import (
	"math/rand"
	"time"
)

// Backoff computes the delay before reconnect/respawn attempt n —
// exponential doubling from Base, capped at Max, plus up to 50% jitter
// so a crash-looping fleet does not retry in lockstep. The zero value
// disables waiting. Not safe for concurrent use when Rng is shared.
type Backoff struct {
	Base time.Duration // delay before the first retry
	Max  time.Duration // cap on the pre-jitter delay (0 = uncapped)
	Rng  *rand.Rand    // jitter source; nil disables jitter (tests)
}

// Next returns the delay for the given consecutive-failure count
// (1 = first failure). Zero or negative counts wait nothing.
func (b Backoff) Next(consecutive int) time.Duration {
	if consecutive <= 0 || b.Base <= 0 {
		return 0
	}
	// Iterative doubling rather than a shift: consecutive grows without
	// bound under a half-open breaker, and base<<(n-1) overflows.
	d := b.Base
	for i := 1; i < consecutive; i++ {
		if b.Max > 0 && d >= b.Max {
			break
		}
		d *= 2
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Rng != nil {
		d += time.Duration(b.Rng.Int63n(int64(d)/2 + 1))
	}
	return d
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: traffic flows; failures are being counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer is presumed down; callers degrade elsewhere.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and one probe is allowed
	// through; its outcome closes or reopens the breaker.
	BreakerHalfOpen
)

// Breaker is a consecutive-failure circuit breaker: Limit failures in a
// row open it, a Success closes it, and — when Cooldown is positive —
// an elapsed cooldown lets one probe through (half-open). Cooldown <= 0
// makes opening terminal, which is exactly the PR 5 subprocess-slot
// semantics (a slot that breaks stays in-process for the rest of the
// run). Not safe for concurrent use; each supervisor slot owns one.
type Breaker struct {
	Limit    int              // consecutive failures that open the breaker (<=0: never opens)
	Cooldown time.Duration    // open→half-open delay; <=0 makes open terminal
	Now      func() time.Time // clock override for tests; nil = time.Now

	state       BreakerState
	consecutive int
	openedAt    time.Time
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

// State reports the breaker's position, resolving an elapsed cooldown
// to half-open.
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.Cooldown > 0 && b.now().Sub(b.openedAt) >= b.Cooldown {
		b.state = BreakerHalfOpen
	}
	return b.state
}

// Allow reports whether a dispatch may proceed: always when closed,
// once per cooldown when open (the half-open probe), never when the
// breaker is terminally open.
func (b *Breaker) Allow() bool {
	return b.State() != BreakerOpen
}

// Success records a successful dispatch: the failure streak resets and
// the breaker closes (a half-open probe that succeeds heals the host).
func (b *Breaker) Success() {
	b.consecutive = 0
	b.state = BreakerClosed
}

// Failure records a failed dispatch and reports whether this failure
// opened the breaker (a new degradation episode — callers count these).
// A failed half-open probe reopens immediately; in the closed state the
// breaker opens on the Limit-th consecutive failure.
func (b *Breaker) Failure() bool {
	b.consecutive++
	switch b.State() {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		return true
	case BreakerClosed:
		if b.Limit > 0 && b.consecutive >= b.Limit {
			b.state = BreakerOpen
			b.openedAt = b.now()
			return true
		}
	}
	return false
}

// Consecutive is the current failure streak — the Backoff exponent.
func (b *Breaker) Consecutive() int { return b.consecutive }
