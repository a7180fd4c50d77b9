package safeland

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safeland/internal/core"
	"safeland/internal/faults"
	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// SelectRequest describes one landing-zone selection over an on-board
// frame. The zero value is invalid: a request needs either an Image with a
// positive MPP, or a Scene (from which both default).
type SelectRequest struct {
	// Image is the on-board frame to select a zone in.
	Image *imaging.Image
	// MPP is the ground sampling distance in meters per pixel.
	MPP float64
	// Scene optionally attaches the full simulated scene. Backends that
	// fuse a-priori data (HybridSelector) or read height fields and ground
	// truth (BaselineSelector) require it; when set, Image and MPP default
	// from it.
	Scene *urban.Scene
	// HomeX, HomeY bias candidate ranking toward this position in meters
	// (both zero disables the bias), mirroring ZoneConfig.HomeX/HomeY.
	HomeX, HomeY float64
}

// SelectResponse wraps one selection outcome with trace metadata.
type SelectResponse struct {
	// Result is the pipeline outcome; meaningful only when Err is nil.
	Result core.Result
	// Selector names the backend that served (or would have served) the
	// request.
	Selector string
	// Queued is how long the request waited for a free worker.
	Queued time.Duration
	// Elapsed is the backend's processing time, excluding queueing.
	Elapsed time.Duration
	// Retried counts how many extra attempts this request took after a
	// transient fault (always 0 outside degraded mode, at most the bounded
	// retry budget inside it).
	Retried int
	// Degraded is true when the shard failed the request — a fault that
	// persisted through the bounded retry, or one no retry fixes — in
	// degraded mode (WithDegradedFallback), so Result carries the
	// fault-tolerant fallback zone instead of a monitored selection:
	// Result.State is core.Degraded and Result.Confirmed is false — a
	// degraded answer never claims verification. Err is nil on a degraded
	// response; DegradedCause names the fault.
	Degraded bool
	// DegradedCause is the fault the fallback answers for
	// ("selector-error", "replica-stall", "shard-blackout", "preempted",
	// or a selector's own error text); "" unless Degraded.
	DegradedCause string
	// Err is non-nil when the request was cancelled or timed out through
	// its context, was rejected by the backend (e.g. a malformed request),
	// failed on a shard fault outside degraded mode, or reached the engine
	// after Close (ErrClosed).
	Err error
}

// EngineStats is a point-in-time snapshot of an Engine's serving counters —
// the service-dashboard view of the pool.
type EngineStats struct {
	// Requests counts selections accepted by Select or SelectBatch.
	Requests int64
	// Served counts requests that reached a worker's backend (Requests
	// minus the ones rejected as malformed before the attempt loop and the
	// ones cancelled or timed out while queued).
	Served int64
	// Failed counts error responses: requests that failed while queued or
	// on a worker.
	Failed int64
	// Sessions is the number of descent sessions currently open (NewSession
	// minus Session.Close), bounded by the admission limit (WithMaxSessions).
	Sessions int64
	// SessionRejects counts NewSession calls refused by admission control.
	// This is the engine's backpressure signal: a session is rejected with
	// ErrSessionLimit immediately — never queued, never blocked — so the
	// fleet layer above can shed the vehicle to another shard (Router) or
	// fall back to stateless Select calls while the rejection count tells
	// operators the shard is saturated.
	SessionRejects int64
	// Frames counts session frames served successfully by Session.Advance.
	Frames int64
	// FramesReused counts the subset of Frames served by the temporal fast
	// path: the previous monitor-confirmed zone re-verified on the new frame
	// instead of a full candidate search.
	FramesReused int64
	// Preempted counts routine session advances cancelled mid-trial so
	// their worker could be handed to a safety-class advance.
	Preempted int64
	// Degraded counts requests and session frames answered by the
	// fault-tolerant fallback because the shard failed them
	// (WithDegradedFallback). Degraded frames are included in Frames — they
	// were served, just not by the monitored pipeline.
	Degraded int64
	// Retried counts extra attempts spent outrunning transient faults in
	// degraded mode (injected faults, preempted advances). One recovered
	// frame contributes one retry and no degradation.
	Retried int64
	// Spilled counts sessions the Router placed on this shard because the
	// vehicle's home shard was saturated or breaker-open. The counter lives
	// on the home shard — it reads as "sessions this shard shed elsewhere".
	Spilled int64
	// BreakerOpen counts transitions of this shard's circuit breaker into
	// the open state. While open, NewSession rejects with
	// ErrShardUnhealthy (also counted in SessionRejects) and the Router
	// routes new vehicles around the shard.
	BreakerOpen int64
}

// engineConfig collects the functional options.
type engineConfig struct {
	train       Options
	samples     *int // nil keeps the system's monitor setting
	system      *System
	checkpoint  string
	factory     SelectorFactory
	workers     int
	maxSessions int

	// Fault-tolerance knobs (faulttolerance.go options).
	name        string
	inj         *faults.Injector
	degrade     bool
	backoffBase time.Duration
	backoffMax  time.Duration
}

// Option configures NewEngine.
type Option func(*engineConfig)

// WithSeed sets the seed driving training and the Monte-Carlo monitor.
func WithSeed(seed int64) Option {
	return func(c *engineConfig) { c.train.Seed = seed }
}

// WithMonitorSamples sets the Bayesian monitor's Monte-Carlo sample count
// (the paper uses 10). It applies to every worker replica, including ones
// built around a loaded checkpoint or an adopted System. n must be at
// least 2, since the monitor's standard deviation needs two samples:
// NewEngine returns an error for any smaller n.
func WithMonitorSamples(n int) Option {
	return func(c *engineConfig) { c.samples = &n; c.train.MCSamples = n }
}

// WithTraining sets the in-process training scale used when neither
// WithSystem nor WithCheckpoint supplies a trained model.
func WithTraining(scenes, steps, sceneSizePx int) Option {
	return func(c *engineConfig) {
		c.train.TrainScenes = scenes
		c.train.TrainSteps = steps
		c.train.SceneSize = sceneSizePx
	}
}

// WithProgress directs training progress lines to w.
func WithProgress(w io.Writer) Option {
	return func(c *engineConfig) { c.train.Progress = w }
}

// WithSystem adopts an already-trained System as the engine's source
// model. The system itself is never used to serve requests — every worker
// gets an independent replica — so the caller keeps exclusive use of it.
func WithSystem(sys *System) Option {
	return func(c *engineConfig) { c.system = sys }
}

// WithCheckpoint loads the model from a checkpoint written by Save or
// cmd/eltrain instead of training in-process.
func WithCheckpoint(path string) Option {
	return func(c *engineConfig) { c.checkpoint = path }
}

// WithSelector chooses the selection backend. The default is
// PipelineSelector (the paper's monitored Figure 2 pipeline); see
// HybridSelector and BaselineSelector for the alternatives.
func WithSelector(f SelectorFactory) Option {
	return func(c *engineConfig) { c.factory = f }
}

// WithWorkers sets the worker-pool size — the number of requests verified
// in parallel. Values below 1 are clamped to 1. The default is
// DefaultWorkers. The pool is the engine's only concurrency: each worker
// runs every perception op of its request on its own goroutine.
func WithWorkers(n int) Option {
	return func(c *engineConfig) { c.workers = n }
}

// WithMaxSessions bounds how many descent sessions (NewSession) may be open
// on this engine at once. Values below 1 keep the default,
// DefaultMaxSessionsPerWorker × the worker count. Admission control rejects
// the excess with ErrSessionLimit instead of blocking — see
// EngineStats.SessionRejects for the backpressure contract.
func WithMaxSessions(n int) Option {
	return func(c *engineConfig) { c.maxSessions = n }
}

// DefaultWorkers is the worker-pool size NewEngine uses when WithWorkers
// is not given: one worker per CPU, each running its requests on one
// goroutine, so a saturated pool uses the whole machine and no more.
func DefaultWorkers() int {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

// DefaultMaxSessionsPerWorker scales the default session admission limit
// (WithMaxSessions) with the worker pool: a session holds only its previous
// result, so what the limit bounds is the frame load every open session
// puts on the shared workers, and it grows with them.
const DefaultMaxSessionsPerWorker = 64

// Engine is the concurrent request/response front end for landing-zone
// selection: a pool of worker-private System replicas behind one pluggable
// Selector backend. Construct it with NewEngine; all methods are safe for
// concurrent use.
//
// The Engine exists because the perception stack is deliberately not
// re-entrant (forward passes cache per-layer state, Monte-Carlo dropout
// keeps per-layer RNGs): instead of locking the hot path, each worker owns
// a full replica, and the monitor's per-call reseeding keeps verdicts
// byte-identical to a sequential run regardless of scheduling. Replicas
// share their parameter tensors under the frozen-weights invariant
// (segment.Model.Clone), so an N-worker pool pays for one copy of the
// model weights plus N sets of per-layer scratch state.
type Engine struct {
	sys      *System
	workers  int
	selector string
	name     string
	pool     *replicaPool
	// check is the backend's request check (requestChecker); nil for a
	// custom Selector.
	check requestChecker
	// inj is the chaos injector (WithFaultInjector); nil injects nothing.
	inj *faults.Injector
	// degrade enables degraded-mode serving (WithDegradedFallback): a
	// bounded retry, then the FT fallback for a shard's failure.
	degrade     bool
	backoffBase time.Duration
	backoffMax  time.Duration
	// health is the per-shard circuit breaker gating session placement.
	health *breaker
	// maxSessions is the admission limit behind NewSession.
	maxSessions int

	// closeMu guards closed; inflight counts the calls inside serve. A
	// call joins inflight under closeMu, so no Add races Close's Wait.
	closeMu  sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	requests atomic.Int64
	served   atomic.Int64
	failed   atomic.Int64

	sessions       atomic.Int64
	sessionRejects atomic.Int64
	frames         atomic.Int64
	framesReused   atomic.Int64
	degraded       atomic.Int64
	retried        atomic.Int64
	spilled        atomic.Int64
	breakerOpened  atomic.Int64

	// chaosSeq numbers stateless Select requests as fault-injection
	// frame coordinates (sessions use their own per-stream frame counter).
	chaosSeq atomic.Int64
}

// NewEngine builds an engine. The model comes from, in order of
// preference: WithSystem, WithCheckpoint, or in-process training with the
// WithSeed/WithTraining/WithMonitorSamples scale (the DefaultOptions scale
// when unset).
func NewEngine(opts ...Option) (*Engine, error) {
	cfg := engineConfig{
		train: DefaultOptions(), factory: PipelineSelector(), workers: DefaultWorkers(),
		name:        "engine",
		backoffBase: 2 * time.Millisecond, backoffMax: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.factory == nil {
		cfg.factory = PipelineSelector()
	}
	if cfg.samples != nil && *cfg.samples < 2 {
		return nil, fmt.Errorf("safeland: WithMonitorSamples(%d): the Bayesian monitor needs at least 2 Monte-Carlo samples", *cfg.samples)
	}

	sys := cfg.system
	switch {
	case sys != nil:
	case cfg.checkpoint != "":
		var err error
		if sys, err = Load(cfg.checkpoint, cfg.train.Seed); err != nil {
			return nil, err
		}
	default:
		sys = NewSystem(cfg.train)
	}

	if cfg.maxSessions < 1 {
		cfg.maxSessions = DefaultMaxSessionsPerWorker * cfg.workers
	}
	e := &Engine{
		sys:         sys,
		workers:     cfg.workers,
		maxSessions: cfg.maxSessions,
		name:        cfg.name,
		inj:         cfg.inj,
		degrade:     cfg.degrade,
		backoffBase: cfg.backoffBase,
		backoffMax:  cfg.backoffMax,
	}
	e.health = newBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown, &e.breakerOpened)
	ws := make([]*worker, 0, cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		rep, err := sys.Replica()
		if err != nil {
			return nil, fmt.Errorf("safeland: building worker %d: %w", i, err)
		}
		if cfg.samples != nil {
			rep.Pipeline.Monitor.Samples = *cfg.samples
		}
		sel, err := cfg.factory(rep)
		if err != nil {
			return nil, fmt.Errorf("safeland: building worker %d: %w", i, err)
		}
		if i == 0 {
			e.selector = sel.Name()
			e.check, _ = sel.(requestChecker)
		}
		ws = append(ws, &worker{sel: sel, pipe: rep.Pipeline})
	}
	e.pool = newReplicaPool(ws)
	return e, nil
}

// ErrClosed is the error of every request, session frame and NewSession
// call an Engine receives after Close. It is an error even in degraded
// mode: a closed engine answers nothing, not even the FT fallback.
var ErrClosed = errors.New("safeland: engine is closed")

// Close stops the engine and drains it. From the moment Close is called,
// Select and SelectBatch answer every new request with ErrClosed
// (counted in Requests and Failed, never by the circuit breaker),
// NewSession fails with ErrClosed, and so does Advance on a session opened
// earlier. Work that was already under way runs to completion: Close
// returns once every call it found in flight has returned, so the pool is
// idle. Close never fails, is idempotent and is safe to call from several
// goroutines at once; Stats keeps reporting after it.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	e.inflight.Wait()
	return nil
}

// enter admits one call into serve, reporting false once Close has begun.
// An admitted call must call e.inflight.Done when it returns.
func (e *Engine) enter() bool {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return false
	}
	e.inflight.Add(1)
	return true
}

// System returns the engine's source system (model, monitor, vehicle
// spec). It is not used to serve requests, so the caller may inspect or
// even run it while the engine serves traffic.
func (e *Engine) System() *System { return e.sys }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// SelectorName returns the name of the configured backend.
func (e *Engine) SelectorName() string { return e.selector }

// Stats returns a snapshot of the engine's serving counters. Counters are
// cumulative over the engine's lifetime; callers tracking one workload
// diff two snapshots.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Requests:       e.requests.Load(),
		Served:         e.served.Load(),
		Failed:         e.failed.Load(),
		Sessions:       e.sessions.Load(),
		SessionRejects: e.sessionRejects.Load(),
		Frames:         e.frames.Load(),
		FramesReused:   e.framesReused.Load(),
		Preempted:      e.pool.preempted.Load(),
		Degraded:       e.degraded.Load(),
		Retried:        e.retried.Load(),
		Spilled:        e.spilled.Load(),
		BreakerOpen:    e.breakerOpened.Load(),
	}
}

// Save writes the engine's model checkpoint to path.
func (e *Engine) Save(path string) error { return e.sys.Save(path) }

// Select serves one request synchronously: it waits for a free worker
// (honoring ctx while queued) and runs the backend on it. The backend keeps
// honoring ctx mid-trial — a cancelled selection stops within one network
// layer's work and carries ctx's error in the response.
func (e *Engine) Select(ctx context.Context, req SelectRequest) SelectResponse {
	e.requests.Add(1)
	o := e.serve(ctx, call{req: req, point: e.name, frame: int(e.chaosSeq.Add(1) - 1)})
	if o.err != nil {
		e.failed.Add(1)
	}
	return SelectResponse{
		Result: o.res, Selector: e.selector, Queued: o.queued, Elapsed: o.elapsed,
		Retried: o.retried, Degraded: o.degraded, DegradedCause: o.cause, Err: o.err,
	}
}

// call is one unit of work for the attempt loop: a Select request or one
// session frame.
type call struct {
	req SelectRequest
	// point and frame key fault injection and retry jitter: the shard name
	// and request sequence for Select, the vehicle ID and the session's
	// frame counter for a session frame.
	point string
	frame int
	// session marks a session frame: it leaves Requests, Served and Failed
	// alone, and it is preemptible while it runs in the routine class.
	session bool
	// trigger promotes a session frame to the safety class once fired.
	trigger *SafetyTrigger
	// prior, when set, is a monitor-confirmed result on a frame the size of
	// img: the first attempt re-verifies its zone on img before it falls
	// back to the Selector.
	prior *core.Result
	img   *imaging.Image
}

// outcome is what the attempt loop hands back to Select and Advance.
type outcome struct {
	res      core.Result
	reused   bool // res re-verified the prior's zone
	safety   bool // the last attempt ran in the safety class
	served   bool // some attempt reached a worker
	retried  int
	degraded bool
	cause    string
	queued   time.Duration
	elapsed  time.Duration
	err      error
}

// serve is the attempt loop behind Select and Session.Advance, bounded by
// the caller's context alone. A transient fault gets the bounded retry
// after a jittered delay, the breaker observes how the call ended, and in
// degraded mode a failure the shard caused is answered by the FT fallback.
// After Close it refuses the call with ErrClosed before any of that, and
// then a request the backend's check rejects gets its malformed-request
// error, before any fault point.
func (e *Engine) serve(ctx context.Context, c call) outcome {
	var o outcome
	if !e.enter() {
		o.err = ErrClosed
		return o
	}
	defer e.inflight.Done()
	if e.check != nil {
		if o.err = e.check.checkRequest(c.req); o.err != nil {
			return o
		}
	}
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			e.retried.Add(1)
			o.retried++
			if err = sleepCtx(ctx, e.retryDelay(c.point, c.frame)); err != nil {
				break
			}
		}
		if err = e.attempt(ctx, c, attempt, &o); err == nil {
			e.health.observe(true)
			return o
		}
		if attempt >= e.retryBudget() || !e.retryableFault(err) || ctx.Err() != nil {
			break
		}
	}
	if shardFault(err) {
		e.health.observe(false)
	}
	if e.degrade && !errors.Is(err, errBadRequest) {
		// The FT fallback answers for the shard's failures only: a caller
		// that gave up gets its context's error, and a request with no
		// frame to fall back on is malformed, whatever the shard did.
		img, mpp, ferr := c.req.frame()
		switch {
		case ctx.Err() != nil:
			err = ctx.Err()
		case ferr != nil:
			err = ferr
		default:
			e.degraded.Add(1)
			o.res = e.ftFallback(c.req, img, mpp)
			o.degraded, o.cause = true, degradedCause(err)
			return o
		}
	}
	o.err = err
	return o
}

// attempt runs one try of a call: blackout check, worker acquisition in the
// call's priority class, transient injection on first attempts, then the
// selection. A routine session frame runs under a context of its own whose
// cancel the pool keeps with the worker, so a safety-class acquire can
// preempt it; it also aborts when the session's own trigger fires
// mid-frame. Queued and Elapsed accumulate across attempts; Safety reflects
// the last one (a trigger can fire between attempts and promote the retry).
func (e *Engine) attempt(ctx context.Context, c call, attempt int, o *outcome) error {
	safety := c.trigger != nil && c.trigger.Triggered()
	o.safety = safety

	// A blacked-out shard fails every attempt of the frame — retries
	// included — so a blackout frame resolves by degrading, not retrying.
	if err := e.blackedOut(c.frame); err != nil {
		return err
	}

	cctx := ctx
	var preempt context.CancelCauseFunc
	if c.session && !safety {
		cctx, preempt = context.WithCancelCause(ctx)
		defer preempt(nil)
	}
	enqueued := time.Now()
	w, err := e.pool.acquire(ctx, safety, preempt)
	o.queued += time.Since(enqueued)
	if err != nil {
		return err
	}
	defer e.pool.release(w)
	if err := ctx.Err(); err != nil {
		return err
	}
	if !c.session && !o.served {
		o.served = true
		e.served.Add(1)
	}
	if preempt != nil && c.trigger != nil {
		stop := context.AfterFunc(c.trigger.ctx, func() { preempt(ErrPreempted) })
		defer stop()
	}

	start := time.Now()
	defer func() { o.elapsed += time.Since(start) }()
	if attempt == 0 {
		if err := e.injectTransient(cctx, c.point, c.frame); err != nil {
			return err
		}
	}
	o.res, o.reused, err = c.selectOn(cctx, w, attempt)
	if err != nil && preempt != nil && errors.Is(context.Cause(cctx), ErrPreempted) {
		err = fmt.Errorf("%w (vehicle %q)", ErrPreempted, c.point)
	}
	return err
}

// selectOn computes one attempt's result on worker w. The first attempt of
// a call with a prior re-verifies the prior's zone on w's monitor and keeps
// the zone when the monitor confirms it again. Otherwise — and on every
// retry, since a failed attempt drops the prior — the Selector runs.
func (c call) selectOn(ctx context.Context, w *worker, attempt int) (core.Result, bool, error) {
	if c.prior != nil && attempt == 0 {
		p := w.pipe
		x0, y0, size := c.prior.Zone.CropRect(c.img.W, c.img.H)
		v, err := p.Monitor.VerifyRegionCtx(ctx, c.img.Crop(x0, y0, size, size), p.Rule)
		if err != nil {
			return core.Result{}, false, err
		}
		if v.Confirmed {
			return core.Result{
				Confirmed:      true,
				Zone:           c.prior.Zone,
				Trials:         []core.Trial{{Candidate: c.prior.Zone, Verdict: v}},
				CandidateCount: 1,
				State:          core.Landing,
				UsedBufferM:    c.prior.UsedBufferM,
			}, true, nil
		}
	}
	res, err := w.sel.Select(ctx, c.req)
	return res, false, err
}

// SelectBatch serves a batch of requests across the worker pool, one
// Select per request, and returns when all are done. Response i always
// corresponds to request i, whatever order the workers finished in.
// Requests cancelled while queued carry ctx's error in their response;
// completed responses are kept even when ctx is cancelled mid-batch.
func (e *Engine) SelectBatch(ctx context.Context, reqs []SelectRequest) []SelectResponse {
	out := make([]SelectResponse, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = e.Select(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// PlanLanding implements uav.LandingPlanner, so an Engine drops straight
// into the mission simulator's safety switch: the request is built from
// the scene under the vehicle with the current position as the home bias,
// and the mission's context bounds the selection, so cancelling the
// mission aborts a planning already in progress. An aborted or failed
// selection reports ok=false — the safety switch's conservative "no
// verified zone" branch.
func (e *Engine) PlanLanding(ctx context.Context, scene *urban.Scene, xM, yM float64) (float64, float64, bool) {
	resp := e.Select(ctx, SelectRequest{Scene: scene, HomeX: xM, HomeY: yM})
	if resp.Err != nil || !resp.Result.Confirmed {
		return 0, 0, false
	}
	txM, tyM := resp.Result.Zone.CenterM(scene.MPP)
	return txM, tyM, true
}
