package safeland

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/faults"
	"safeland/internal/imaging"
)

// ErrShardUnhealthy is returned by NewSession while the engine's circuit
// breaker is open: the shard has failed too many consecutive serves and is
// refusing new placements until it proves itself on a half-open probe. Like
// ErrSessionLimit the rejection is immediate — the fleet layer (Router)
// reacts by spilling the vehicle to a healthy shard.
var ErrShardUnhealthy = errors.New("safeland: shard circuit breaker open")

// WithFaultInjector attaches a chaos injector to the engine: the named
// injection points of the attempt loop (selector error and replica stall
// per vehicle or request, shard blackout per shard) consult it per frame.
// The injector is deterministic and seed-keyed (internal/faults), so a
// chaos run against the engine is reproducible byte-for-byte. nil (the
// default) injects nothing and costs nothing.
func WithFaultInjector(inj *faults.Injector) Option {
	return func(c *engineConfig) { c.inj = inj }
}

// WithShardName names the engine as a fault-injection point and breaker
// identity — "shard0", "shard1" in a Router fleet. Shard-scoped faults
// (blackout) key on this name, so two shards under one injector fail
// independently. The default is "engine".
func WithShardName(name string) Option {
	return func(c *engineConfig) {
		if name != "" {
			c.name = name
		}
	}
}

// WithDegradedFallback toggles degraded-mode serving (default off, which
// preserves the fail-hard contract). When on:
//
//   - transient faults (injected selector errors, replica stalls, a
//     preempted routine advance) get one bounded retry after a
//     deterministic-jitter delay (WithRetryBackoff);
//   - when the fault outlasts that retry, or no retry can fix it (a shard
//     blackout, a selector error), the engine answers with the paper's
//     fault-tolerant baseline zone (FT-center, or flatness when the request
//     carries a Scene) instead of an error: the response is marked Degraded
//     with its cause, Result.State is core.Degraded, and Result.Confirmed
//     is always false — the monitor's refusal semantics survive the
//     fallback, a degraded zone never claims verification.
//
// The caller's context bounds the whole call, retries included, in either
// mode. Its cancellation or deadline, a malformed request and ErrClosed
// still surface as errors: degradation answers for the shard's failures,
// not the caller's.
func WithDegradedFallback(on bool) Option {
	return func(c *engineConfig) { c.degrade = on }
}

// WithRetryBackoff sets the delay before the transient-fault retry in
// degraded mode: base plus a deterministic jitter of up to half of base,
// keyed on vehicle and frame so a fleet's retries decorrelate without
// losing reproducibility, capped at max. Values <= 0 keep the defaults
// (2ms base, 50ms cap).
func WithRetryBackoff(base, max time.Duration) Option {
	return func(c *engineConfig) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// Breaker defaults: three consecutive failures open a shard, four recovery
// observations earn the half-open probe. Small numbers on purpose — a
// descent frame is ~100ms of compute, so a shard that failed three frames
// in a row should stop taking new vehicles *now*.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 4
)

// breakerState is the circuit-breaker position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-shard circuit breaker guarding session placement.
// It is event-driven, not clock-driven: opening takes `threshold`
// consecutive serve failures, and the open state cools down per recovery
// observation (a successful serve by a sticky session, or a rejected
// placement attempt) rather than per wall-clock second — so breaker
// trajectories in a chaos run are a pure function of the fault schedule,
// reproducible byte-for-byte. After `cooldown` observations the breaker
// half-opens: placements are admitted again as probes, the first observed
// serve outcome closing it (success) or re-opening it (failure).
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  int
	opened    *atomic.Int64 // engine's BreakerOpen counter

	state     breakerState
	consec    int
	remaining int
}

func newBreaker(threshold, cooldown int, opened *atomic.Int64) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, opened: opened}
}

// trip opens the breaker; b.mu held.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.remaining = b.cooldown
	b.consec = 0
	b.opened.Add(1)
}

// admit gates one placement attempt. While open it rejects — and counts
// the rejection toward cooldown, so a drained shard with no sticky
// sessions still heals: enough knocking earns the half-open probe.
func (b *breaker) admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return true
	}
	b.remaining--
	if b.remaining <= 0 {
		b.state = breakerHalfOpen
	}
	return false
}

// healthy peeks at the state without consuming a cooldown observation —
// the Router's spillover-target check.
func (b *breaker) healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerOpen
}

// observe feeds one serve outcome.
func (b *breaker) observe(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		switch b.state {
		case breakerOpen:
			b.remaining--
			if b.remaining <= 0 {
				b.state = breakerHalfOpen
			}
		default:
			b.state = breakerClosed
			b.consec = 0
		}
		return
	}
	switch b.state {
	case breakerClosed:
		b.consec++
		if b.consec >= b.threshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	case breakerOpen:
		// Still failing: push the half-open probe back out.
		b.remaining = b.cooldown
	}
}

// Healthy reports whether the engine's circuit breaker currently admits
// new session placements (closed or half-open). The Router consults it
// when picking a spillover shard; operators can poll it as a liveness
// signal. It never mutates breaker state.
func (e *Engine) Healthy() bool { return e.health.healthy() }

// Name returns the engine's shard name (WithShardName).
func (e *Engine) Name() string { return e.name }

// retryBudget returns how many retries a request gets past its first
// attempt: the bounded single retry in degraded mode, none otherwise.
func (e *Engine) retryBudget() int {
	if e.degrade {
		return 1
	}
	return 0
}

// retryDelay computes the delay before the retry of the work keyed by
// point/frame.
func (e *Engine) retryDelay(point string, frame int) time.Duration {
	key := point + "#" + strconv.Itoa(frame)
	return faults.Backoff(e.inj.Seed(), key, e.backoffBase, e.backoffMax)
}

// retryableFault classifies errors a second attempt can outrun: the
// attempt-scoped injected faults, and a routine advance preempted by a
// safety-class request (the replica comes back after the safety frame).
// Shard blackouts are frame-wide — the retry would hit the same wall — and
// everything else (caller cancellation, malformed requests) is not a fault
// retries fix.
func (e *Engine) retryableFault(err error) bool {
	if fe := faults.AsInjected(err); fe != nil {
		return fe.Kind.Transient()
	}
	return errors.Is(err, ErrPreempted)
}

// shardFault classifies failures attributable to the shard itself — the
// ones the circuit breaker should count: injected chaos faults and
// preempted advances. Caller cancellation and malformed requests are the
// caller's, not the shard's.
func shardFault(err error) bool {
	return faults.AsInjected(err) != nil || errors.Is(err, ErrPreempted)
}

// degradedCause renders the fault the fallback answers for as the
// response marker (SelectResponse.DegradedCause).
func degradedCause(err error) string {
	if errors.Is(err, ErrPreempted) {
		return "preempted"
	}
	if fe := faults.AsInjected(err); fe != nil {
		return fe.Kind.String()
	}
	return err.Error()
}

// injectTransient fires the attempt-scoped chaos faults at the given
// injection point: a replica stall (optionally burning the injector's
// configured wall-clock delay — outputs are identical either way) and a
// selector error. The serving layers call it on first attempts only: the
// schedule says a transient fault occurs at this frame, and the bounded
// retry models it clearing.
func (e *Engine) injectTransient(ctx context.Context, point string, frame int) error {
	if e.inj == nil {
		return nil
	}
	if e.inj.Fire(faults.ReplicaStall, point, frame) {
		if d := e.inj.Stall(); d > 0 {
			_ = sleepCtx(ctx, d)
		}
		return e.inj.Errorf(faults.ReplicaStall, point, frame)
	}
	if e.inj.Fire(faults.SelectorError, point, frame) {
		return e.inj.Errorf(faults.SelectorError, point, frame)
	}
	return nil
}

// blackedOut reports the frame-wide shard-blackout fault, which holds
// across retries of the frame.
func (e *Engine) blackedOut(frame int) error {
	if e.inj.Fire(faults.ShardBlackout, e.name, frame) {
		return e.inj.Errorf(faults.ShardBlackout, e.name, frame)
	}
	return nil
}

// ftFallback builds the degraded-mode answer: the paper's fault-tolerant
// baseline zone, selected by pure geometry with no perception in the loop,
// so it cannot itself fail under the faults that exhausted the budget.
// With a Scene attached the flatness baseline picks the flattest window
// (SafeUAV's criterion); an image-only request gets the FT-center zone —
// terminate under the current position, the Figure 1 floor. The result is
// explicitly unverified: State core.Degraded, Confirmed false, no trials,
// no prediction.
func (e *Engine) ftFallback(req SelectRequest, img *imaging.Image, mpp float64) core.Result {
	zones := core.DefaultZoneConfig()
	if e.sys != nil && e.sys.Pipeline != nil {
		zones = e.sys.Pipeline.Zones
	}
	zonePx := int(math.Ceil(zones.ZoneSizeM / mpp))
	if zonePx < 2 {
		zonePx = 2
	}
	if req.Scene != nil {
		if z, ok := (baseline.Flatness{}).Select(req.Scene, zonePx); ok {
			return degradedResult(z.X0, z.Y0, z.Size, -z.Score)
		}
		if z, ok := (baseline.FTCenter{}).Select(req.Scene, zonePx); ok {
			return degradedResult(z.X0, z.Y0, z.Size, -z.Score)
		}
	}
	// Image-only request: the FT-center geometry applied to the frame
	// itself — terminate under the current position.
	if zonePx > img.W {
		zonePx = img.W
	}
	if zonePx > img.H {
		zonePx = img.H
	}
	return degradedResult((img.W-zonePx)/2, (img.H-zonePx)/2, zonePx, 0)
}

// degradedResult wraps a fallback zone in the degraded result shape: one
// best-effort candidate, never confirmed.
func degradedResult(x0, y0, size int, score float64) core.Result {
	return core.Result{
		Confirmed:      false,
		State:          core.Degraded,
		CandidateCount: 1,
		Zone:           core.Candidate{X0: x0, Y0: y0, SizePx: size, Score: score},
	}
}

// sleepCtx waits d, honoring ctx; a zero or negative d only polls ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
