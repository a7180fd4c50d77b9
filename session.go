package safeland

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"safeland/internal/core"
)

// ErrSessionLimit is returned by NewSession when the engine's admission
// limit (WithMaxSessions) is reached. The rejection is immediate — sessions
// are never queued — so the fleet layer can shed the vehicle to another
// shard or fall back to stateless Select calls.
var ErrSessionLimit = errors.New("safeland: session limit reached")

// ErrPreempted is the cause a routine session advance is cancelled with
// when a safety-class advance needs its worker. Match it with
// errors.Is on SessionResponse.Err; the caller retries the frame (its
// trigger has usually fired by then, promoting the retry to safety class).
var ErrPreempted = errors.New("safeland: routine selection preempted by a safety-class request")

// ErrSessionClosed is returned by Advance on a closed session.
var ErrSessionClosed = errors.New("safeland: session is closed")

// SafetyTrigger is a thread-safe latch that promotes a session to the
// safety priority class: once any goroutine fires it — a failure monitor, a
// geofence breach, the mission safety switch — every subsequent Advance on
// sessions bound to it runs in the safety class, and one in-flight routine
// advance on the engine is preempted to free a worker immediately. The
// first Trigger wins; later calls are no-ops that keep the first reason.
type SafetyTrigger struct {
	mu     sync.Mutex
	reason string
	// ctx is done once the trigger fires; routine advances of bound
	// sessions abort on it through context.AfterFunc.
	ctx  context.Context
	fire context.CancelFunc
}

// NewSafetyTrigger returns an unfired trigger.
func NewSafetyTrigger() *SafetyTrigger {
	ctx, fire := context.WithCancel(context.Background())
	return &SafetyTrigger{ctx: ctx, fire: fire}
}

// Trigger latches the trigger with the given reason and reports whether
// this call fired it (false when it was already fired; the original reason
// is kept).
func (t *SafetyTrigger) Trigger(reason string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Triggered() {
		return false
	}
	t.reason = reason
	t.fire()
	return true
}

// Triggered reports whether the trigger has fired.
func (t *SafetyTrigger) Triggered() bool { return t.ctx.Err() != nil }

// Reason returns the reason of the first Trigger call, "" while unfired.
func (t *SafetyTrigger) Reason() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reason
}

// Done returns a channel closed when the trigger fires.
func (t *SafetyTrigger) Done() <-chan struct{} { return t.ctx.Done() }

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithSessionTrigger binds a safety trigger to the session; see
// SafetyTrigger. One trigger may be shared by several sessions of the same
// vehicle's subsystems.
func WithSessionTrigger(t *SafetyTrigger) SessionOption {
	return func(s *Session) { s.trigger = t }
}

// Session is a per-vehicle descent stream over an Engine: a sequence of
// Advance calls over consecutive frames of one vehicle's descent. Between
// frames it keeps only a prior — the last successful result and that
// frame's size. When the prior's zone was confirmed by a monitor trial and
// the next frame has the same size, Advance first re-verifies that zone on
// the new frame and keeps it if the monitor confirms it again; otherwise
// the frame goes to the engine's Selector, exactly like a Select. Either
// way the work runs on a borrowed pool worker, so sessions cost no model
// replica and the pool bounds total CPU. Monitor verdicts are reseeded per
// call, so session verdicts are byte-identical to the stateless path on
// the same pixels.
//
// A Session is safe for concurrent use, but Advance calls serialize on the
// session — streams are per-vehicle and ordered by construction.
type Session struct {
	eng     *Engine
	vehicle string
	trigger *SafetyTrigger

	mu     sync.Mutex
	closed bool
	// frames numbers the stream's frames as fault-injection coordinates.
	frames int
	// prior is the last successful result and its frame's size; nil after
	// a failed or degraded frame.
	prior *prior
}

// prior is what a session carries from one frame to the next.
type prior struct {
	res  core.Result
	w, h int
}

// NewSession opens a descent stream for a vehicle. It is subject to
// admission control: when the engine already has its maximum number of open
// sessions (WithMaxSessions), NewSession fails immediately with
// ErrSessionLimit, and while the engine's circuit breaker is open it fails
// immediately with ErrShardUnhealthy — it never blocks — and either
// rejection is counted in EngineStats.SessionRejects. After Engine.Close it
// fails with ErrClosed. Close the session when the descent ends.
func (e *Engine) NewSession(vehicleID string, opts ...SessionOption) (*Session, error) {
	e.closeMu.Lock()
	closed := e.closed
	e.closeMu.Unlock()
	if closed {
		return nil, fmt.Errorf("%w: shard %q refusing vehicle %q", ErrClosed, e.name, vehicleID)
	}
	if !e.health.admit() {
		e.sessionRejects.Add(1)
		return nil, fmt.Errorf("%w: shard %q refusing vehicle %q", ErrShardUnhealthy, e.name, vehicleID)
	}
	if n := e.sessions.Add(1); n > int64(e.maxSessions) {
		e.sessions.Add(-1)
		e.sessionRejects.Add(1)
		return nil, fmt.Errorf("%w: engine at %d open sessions, vehicle %q rejected", ErrSessionLimit, e.maxSessions, vehicleID)
	}
	s := &Session{eng: e, vehicle: vehicleID}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Vehicle returns the vehicle ID the session was opened for.
func (s *Session) Vehicle() string { return s.vehicle }

// Trigger returns the bound safety trigger, nil when none.
func (s *Session) Trigger() *SafetyTrigger { return s.trigger }

// Close ends the stream, drops the prior and frees the session's admission
// slot. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.prior = nil
	s.eng.sessions.Add(-1)
	return nil
}

// SessionResponse wraps one Advance outcome with trace metadata.
type SessionResponse struct {
	// Result is the selection outcome; meaningful only when Err is nil.
	// On the temporal fast path (Reused) it re-confirms the previous zone:
	// Trials holds the single re-verification, CandidateCount is 1 and Pred
	// is nil — the candidate search was skipped, so there is no fresh
	// full-frame segmentation to report.
	Result core.Result
	// Safety is true when the advance ran in the safety priority class
	// (the bound trigger had fired when the advance started).
	Safety bool
	// Reused is true when the frame was served by the temporal fast path:
	// the previous monitor-confirmed zone re-verified on this frame.
	Reused bool
	// Retried counts how many extra attempts this frame took after a
	// transient fault (always 0 outside degraded mode).
	Retried int
	// Degraded is true when the frame's compute budget was exhausted and
	// Result carries the fault-tolerant fallback zone: Result.State is
	// core.Degraded and Result.Confirmed is false — a degraded frame never
	// claims a verified zone. Err is nil on a degraded response.
	Degraded bool
	// DegradedCause names the budget-exhausting fault; "" unless Degraded.
	DegradedCause string
	// Queued is how long the advance waited for a worker.
	Queued time.Duration
	// Elapsed is the processing time, excluding queueing.
	Elapsed time.Duration
	// Err is non-nil when the advance was cancelled, timed out while
	// queued, preempted (ErrPreempted), the request was malformed, or the
	// engine was closed (ErrClosed).
	Err error
}

// Advance serves the next frame of the descent. The request is the same
// shape Select takes; the frame must keep its size across the stream for
// reuse to engage (a size change restarts the stream cold, it is not an
// error). When the bound trigger has fired, the advance runs in the safety
// class: it may preempt a routine advance to get a worker and it jumps the
// routine queue. A failed attempt drops the prior, so a retry and the next
// frame start from a full selection.
func (s *Session) Advance(ctx context.Context, req SelectRequest) SessionResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionResponse{Err: ErrSessionClosed}
	}
	img, _, err := req.frame()
	if err != nil {
		return SessionResponse{Err: err}
	}
	c := call{req: req, point: s.vehicle, frame: s.frames, session: true, trigger: s.trigger, img: img}
	s.frames++
	if p := s.prior; p != nil && p.w == img.W && p.h == img.H && monitorConfirmed(p.res) {
		c.prior = &p.res
	}
	s.prior = nil

	e := s.eng
	o := e.serve(ctx, c)
	if o.err == nil {
		e.frames.Add(1)
		if o.reused {
			e.framesReused.Add(1)
		}
		if !o.degraded {
			s.prior = &prior{res: o.res, w: img.W, h: img.H}
		}
	}
	return SessionResponse{
		Result: o.res, Safety: o.safety, Reused: o.reused, Retried: o.retried,
		Degraded: o.degraded, DegradedCause: o.cause, Queued: o.queued, Elapsed: o.elapsed, Err: o.err,
	}
}

// monitorConfirmed reports whether r's zone was confirmed by a monitor
// trial — the only kind of zone a session re-verifies. A baseline pick
// carries no trial, and a degraded answer is never confirmed.
func monitorConfirmed(r core.Result) bool {
	return r.Confirmed && len(r.Trials) > 0 && r.Trials[len(r.Trials)-1].Verdict.Confirmed
}

// registerPreemptible enters a routine advance's cancel into the engine's
// preemption registry and returns its id.
func (e *Engine) registerPreemptible(cancel context.CancelCauseFunc) int64 {
	e.preemptMu.Lock()
	defer e.preemptMu.Unlock()
	e.preemptSeq++
	e.preemptible[e.preemptSeq] = cancel
	return e.preemptSeq
}

func (e *Engine) unregisterPreemptible(id int64) {
	e.preemptMu.Lock()
	delete(e.preemptible, id)
	e.preemptMu.Unlock()
}

// preemptOneRoutine cancels the oldest in-flight routine session advance
// with cause ErrPreempted, freeing its worker for a safety-class advance
// within one layer's work. It reports whether an advance was preempted.
func (e *Engine) preemptOneRoutine() bool {
	e.preemptMu.Lock()
	best := int64(-1)
	for id := range e.preemptible {
		if best < 0 || id < best {
			best = id
		}
	}
	var cancel context.CancelCauseFunc
	if best >= 0 {
		cancel = e.preemptible[best]
		delete(e.preemptible, best)
	}
	e.preemptMu.Unlock()
	if cancel == nil {
		return false
	}
	cancel(ErrPreempted)
	e.preempted.Add(1)
	return true
}
