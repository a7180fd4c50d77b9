package safeland

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/segment"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

// stubSystem builds an untrained system: cheap enough for engine plumbing
// tests that never run the perception stack.
func stubSystem() *System {
	return &System{Pipeline: core.NewPipeline(segment.New(segment.DefaultConfig()), 1), Spec: uav.MediDelivery()}
}

// stubSelector records calls and echoes the request's MPP back as the
// candidate count, so tests can match responses to requests.
type stubSelector struct {
	calls *atomic.Int32
	delay func(req SelectRequest) time.Duration
}

func (s *stubSelector) Name() string { return "stub" }

func (s *stubSelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	s.calls.Add(1)
	if s.delay != nil {
		select {
		case <-time.After(s.delay(req)):
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	return core.Result{Confirmed: true, State: core.Landing, CandidateCount: int(req.MPP)}, nil
}

// stubFactory shares one call counter across all workers.
func stubFactory(calls *atomic.Int32, delay func(SelectRequest) time.Duration) SelectorFactory {
	return func(*System) (Selector, error) {
		return &stubSelector{calls: calls, delay: delay}, nil
	}
}

func TestEngineOptionDefaults(t *testing.T) {
	cases := []struct {
		name        string
		opts        []Option
		wantWorkers int
		wantSel     string
	}{
		{"defaults", nil, DefaultWorkers(), "msdnet-monitor"},
		{"workers clamped to one", []Option{WithWorkers(-3)}, 1, "msdnet-monitor"},
		{"workers explicit", []Option{WithWorkers(6)}, 6, "msdnet-monitor"},
		{"hybrid backend", []Option{WithWorkers(1), WithSelector(HybridSelector())}, 1, "hybrid-gis"},
		{"baseline backend", []Option{WithWorkers(1), WithSelector(BaselineSelector(baseline.NewCanny()))},
			1, "baseline-canny-edge-density"},
		{"nil selector falls back", []Option{WithWorkers(1), WithSelector(nil)}, 1, "msdnet-monitor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(append([]Option{WithSystem(stubSystem())}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Workers() != tc.wantWorkers {
				t.Errorf("workers = %d, want %d", eng.Workers(), tc.wantWorkers)
			}
			if eng.SelectorName() != tc.wantSel {
				t.Errorf("selector = %q, want %q", eng.SelectorName(), tc.wantSel)
			}
		})
	}
}

func TestEngineMonitorSamplesOverride(t *testing.T) {
	sys := stubSystem()
	sys.Pipeline.Monitor.Samples = 10
	eng, err := NewEngine(WithSystem(sys), WithWorkers(1), WithMonitorSamples(3))
	if err != nil {
		t.Fatal(err)
	}
	if idle := eng.pool.idle(); idle != 1 {
		t.Fatalf("fresh one-worker pool has %d idle workers", idle)
	}
	w := eng.pool.free[0]
	rep, ok := w.sel.(*pipelineSelector)
	if !ok {
		t.Fatalf("default selector is %T, want *pipelineSelector", w.sel)
	}
	if rep.pipe.Monitor.Samples != 3 {
		t.Errorf("replica MC samples = %d, want 3", rep.pipe.Monitor.Samples)
	}
	if sys.Pipeline.Monitor.Samples != 10 {
		t.Errorf("source system mutated: MC samples = %d, want 10", sys.Pipeline.Monitor.Samples)
	}
	if rep.pipe.Model == sys.Pipeline.Model {
		t.Error("worker shares the source model; want a replica")
	}
}

// TestEngineRejectsTooFewMonitorSamples pins that a monitor sample count
// the Bayesian monitor cannot run is refused when the engine or system is
// built, never met by the first Monte-Carlo trial: NewEngine returns an
// error naming WithMonitorSamples for every n < 2 (0 included, which is
// not a "keep the default"), and NewSystem panics on Options.MCSamples = 1
// before it trains.
func TestEngineRejectsTooFewMonitorSamples(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithMonitorSamples(n))
		if err == nil {
			eng.Close()
			t.Errorf("WithMonitorSamples(%d): NewEngine returned no error", n)
			continue
		}
		if !strings.Contains(err.Error(), "WithMonitorSamples") {
			t.Errorf("WithMonitorSamples(%d): error %q does not name the option", n, err)
		}
	}
	if eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithMonitorSamples(2)); err != nil {
		t.Fatalf("WithMonitorSamples(2): %v", err)
	} else {
		eng.Close()
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MCSamples") {
			t.Errorf("NewSystem with MCSamples 1: recovered %v, want a panic naming MCSamples", r)
		}
	}()
	NewSystem(Options{Seed: 1, TrainScenes: 1, TrainSteps: 1, SceneSize: 32, MCSamples: 1})
}

// errSelector fails requests with negative MPP — a cheap way to route some
// of a batch through the error path.
type errSelector struct{}

func (errSelector) Name() string { return "err-stub" }

func (errSelector) Select(_ context.Context, req SelectRequest) (core.Result, error) {
	if req.MPP < 0 {
		return core.Result{}, fmt.Errorf("negative MPP")
	}
	return core.Result{Confirmed: true, State: core.Landing}, nil
}

func TestEngineStatsCounters(t *testing.T) {
	eng, err := NewEngine(
		WithSystem(stubSystem()), WithWorkers(2),
		WithSelector(func(*System) (Selector, error) { return errSelector{}, nil }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st != (EngineStats{}) {
		t.Fatalf("fresh engine stats = %+v, want zero", st)
	}

	// 4 served OK, 2 served with a backend error.
	reqs := []SelectRequest{{MPP: 1}, {MPP: -1}, {MPP: 2}, {MPP: 3}, {MPP: -2}, {MPP: 4}}
	for i, resp := range eng.SelectBatch(context.Background(), reqs) {
		if wantErr := reqs[i].MPP < 0; (resp.Err != nil) != wantErr {
			t.Fatalf("response %d err = %v, want error %v", i, resp.Err, wantErr)
		}
	}
	st := eng.Stats()
	if st.Requests != 6 || st.Served != 6 || st.Failed != 2 {
		t.Errorf("after batch: stats = %+v, want 6 requests / 6 served / 2 failed", st)
	}

	// A request cancelled while queued counts as accepted and failed, but
	// never as served.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if resp := eng.Select(ctx, SelectRequest{MPP: 1}); !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("cancelled select err = %v", resp.Err)
	}
	st = eng.Stats()
	if st.Requests != 7 || st.Served != 6 || st.Failed != 3 {
		t.Errorf("after cancelled select: stats = %+v, want 7 requests / 6 served / 3 failed", st)
	}
}

// TestEngineStatsCountsServeDrops pins the accounting of a request that
// SelectBatch accepted but the cancellation dropped before it was served:
// it counts as accepted and failed, never as served. On one worker, one
// request blocks the worker until ctx is cancelled; the other waits for the
// worker and, whichever way the cancellation race resolves for it — its
// acquire gives up, or it gets the worker and sees ctx already cancelled —
// never reaches the backend, so the totals are deterministic.
func TestEngineStatsCountsServeDrops(t *testing.T) {
	started := make(chan struct{}, 1)
	var calls atomic.Int32
	blocking := func(*System) (Selector, error) {
		return &stubSelector{calls: &calls, delay: func(SelectRequest) time.Duration {
			select {
			case started <- struct{}{}:
			default:
			}
			return time.Hour // released by cancellation
		}}, nil
	}
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithSelector(blocking))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []SelectResponse)
	go func() { done <- eng.SelectBatch(ctx, []SelectRequest{{MPP: 1}, {MPP: 2}}) }()

	<-started // one request holds the single worker; the other waits
	cancel()
	resps := <-done

	for i, resp := range resps {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Errorf("request %d err = %v, want context.Canceled", i, resp.Err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend ran %d times, want 1", got)
	}
	st := eng.Stats()
	if st.Requests != 2 || st.Served != 1 || st.Failed != 2 {
		t.Errorf("stats after cancelled batch = %+v, want 2 requests / 1 served / 2 failed", st)
	}
}

func TestEngineBatchOrderMatchesInput(t *testing.T) {
	var calls atomic.Int32
	// Earlier requests sleep longer, so completion order inverts input
	// order; the response slice must still line up with the requests.
	const n = 8
	delay := func(req SelectRequest) time.Duration {
		return time.Duration(n-int(req.MPP)) * 5 * time.Millisecond
	}
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(4), WithSelector(stubFactory(&calls, delay)))
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]SelectRequest, n)
	for i := range reqs {
		reqs[i] = SelectRequest{MPP: float64(i + 1)}
	}
	resps := eng.SelectBatch(context.Background(), reqs)
	if len(resps) != n {
		t.Fatalf("got %d responses for %d requests", len(resps), n)
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("response %d: %v", i, resp.Err)
		}
		if resp.Result.CandidateCount != i+1 {
			t.Errorf("response %d carries request %d's payload", i, resp.Result.CandidateCount-1)
		}
		if resp.Selector != "stub" {
			t.Errorf("response %d selector = %q", i, resp.Selector)
		}
	}
	if got := calls.Load(); got != n {
		t.Errorf("backend ran %d times, want %d", got, n)
	}
}

// cancelSelector confirms its first request and cancels the batch context
// from inside it, so every later request observes a dead context.
type cancelSelector struct {
	cancel context.CancelFunc
	calls  atomic.Int32
}

func (s *cancelSelector) Name() string { return "cancel-stub" }

func (s *cancelSelector) Select(ctx context.Context, _ SelectRequest) (core.Result, error) {
	if s.calls.Add(1) == 1 {
		s.cancel()
		return core.Result{Confirmed: true, State: core.Landing}, nil
	}
	return core.Result{}, ctx.Err()
}

// TestEngineContextCancellationMidBatch pins SelectBatch's cancellation
// contract: the response whose work completed is kept, every request the
// cancellation caught while queued carries ctx's error, and the stats count
// each of those as accepted and failed but never served.
func TestEngineContextCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sel := &cancelSelector{cancel: cancel}
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1),
		WithSelector(func(*System) (Selector, error) { return sel, nil }))
	if err != nil {
		t.Fatal(err)
	}
	resps := eng.SelectBatch(ctx, make([]SelectRequest, 6))
	var ok, cancelled int
	for _, resp := range resps {
		switch resp.Err {
		case nil:
			ok++
		case context.Canceled:
			cancelled++
		default:
			t.Errorf("unexpected error: %v", resp.Err)
		}
	}
	if ok != 1 || cancelled != 5 {
		t.Errorf("got %d completed / %d cancelled, want 1 / 5", ok, cancelled)
	}
	if st := eng.Stats(); st.Requests != 6 || st.Served != 1 || st.Failed != 5 {
		t.Errorf("stats after cancelled batch = %+v, want 6 requests / 1 served / 5 failed", st)
	}
}

// TestEngineRequestDeadline pins that a request's deadline is its
// context's: an expired one fails the request with the context's error,
// and a future one, or none, leaves it to be served.
func TestEngineRequestDeadline(t *testing.T) {
	var calls atomic.Int32
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithSelector(stubFactory(&calls, nil)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		deadline time.Time // zero: no deadline
		wantErr  error
	}{
		{"expired deadline", time.Now().Add(-time.Second), context.DeadlineExceeded},
		{"no deadline", time.Time{}, nil},
		{"future deadline", time.Now().Add(time.Minute), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if !tc.deadline.IsZero() {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, tc.deadline)
				defer cancel()
			}
			resp := eng.Select(ctx, SelectRequest{MPP: 1})
			if resp.Err != tc.wantErr {
				t.Errorf("err = %v, want %v", resp.Err, tc.wantErr)
			}
		})
	}
}

// pollDeadlineCtx counts its Err polls and reports
// context.DeadlineExceeded from the one after limit on, so a deadline lands
// at the same point of a deterministic computation on any host.
type pollDeadlineCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *pollDeadlineCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// TestEngineSelectCancelsMidTrial pins the ctx-aware perception stack: a
// context whose deadline passes while the pipeline is mid-selection (not
// merely queued) must surface ctx.Err() promptly instead of running the
// remaining Monte-Carlo trials to completion.
func TestEngineSelectCancelsMidTrial(t *testing.T) {
	sys := quickSystem(t)
	eng, err := NewEngine(WithSystem(sys), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	// A scene with landing candidates, so the selection runs Monte-Carlo
	// trials after segmenting.
	scene := urban.Generate(cfg, urban.DefaultConditions(), 5)
	req := SelectRequest{Image: scene.Image, MPP: scene.MPP}

	// Uncancelled baseline: the result, and how many times a whole
	// selection polls its context.
	full := eng.Select(context.Background(), req)
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	if len(full.Result.Trials) == 0 {
		t.Fatal("the baseline selection ran no Monte-Carlo trial: the scene no longer exercises a mid-trial cancellation")
	}
	count := &pollDeadlineCtx{Context: context.Background(), limit: math.MaxInt64}
	if counted := eng.Select(count, req); counted.Err != nil || !reflect.DeepEqual(counted.Result, full.Result) {
		t.Fatalf("a never-expiring polled context changed the selection (err %v)", counted.Err)
	}

	// The polls of each trial, counted on a replica's monitor (the fused
	// network the worker serves). The selection polls nothing after its
	// last trial, so the trials are the last polls of the count.
	rep, err := sys.Replica()
	if err != nil {
		t.Fatal(err)
	}
	mon := rep.Pipeline.Monitor
	trialPolls := make([]int64, len(full.Result.Trials))
	before := count.polls.Load()
	for i, tr := range full.Result.Trials {
		x0, y0, size := tr.Candidate.CropRect(scene.Image.W, scene.Image.H)
		c := &pollDeadlineCtx{Context: context.Background(), limit: math.MaxInt64}
		if _, err := mon.VerifyRegionCtx(c, scene.Image.Crop(x0, y0, size, size), rep.Pipeline.Rule); err != nil {
			t.Fatal(err)
		}
		trialPolls[i] = c.polls.Load()
		before -= trialPolls[i]
	}
	if before <= 0 || trialPolls[0] < 2 {
		t.Fatalf("%d polls before the first trial, %d in it: the count no longer places a deadline inside it", before, trialPolls[0])
	}

	// The deadline passes halfway through the first trial's polls: after
	// segmentation, before the first verdict.
	ctx := &pollDeadlineCtx{Context: context.Background(), limit: before + trialPolls[0]/2}
	t.Logf("deadline after poll %d of %d: %d before the first trial, %v in the trials", ctx.limit, count.polls.Load(), before, trialPolls)
	start := time.Now()
	resp := eng.Select(ctx, req)
	if resp.Err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", resp.Err)
	}
	if resp.Result.Pred == nil || len(resp.Result.Trials) != 0 {
		t.Fatalf("cancelled with %d trials done (segmented: %v), want inside the first trial",
			len(resp.Result.Trials), resp.Result.Pred != nil)
	}
	// "Promptly": well under the full selection time. One network layer is
	// the cancellation granularity; allow half the full run as slack.
	if waited := time.Since(start); waited > full.Elapsed/2+50*time.Millisecond {
		t.Errorf("cancelled select took %v of a %v full run", waited, full.Elapsed)
	}

	// The engine stays serviceable and deterministic after a cancellation.
	again := eng.Select(context.Background(), req)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !reflect.DeepEqual(full.Result, again.Result) {
		t.Error("result after a cancelled request diverged from the baseline")
	}
}

// TestEngineReplicasShareWeights pins the replica-pool memory guarantee:
// every worker's model aliases the source system's parameter tensors.
func TestEngineReplicasShareWeights(t *testing.T) {
	sys := stubSystem()
	eng, err := NewEngine(WithSystem(sys), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	src := sys.Pipeline.Model.Net.Params()
	if idle := eng.pool.idle(); idle != eng.Workers() {
		t.Fatalf("fresh pool has %d idle of %d workers", idle, eng.Workers())
	}
	for w, wk := range eng.pool.free {
		rep, ok := wk.sel.(*pipelineSelector)
		if !ok {
			t.Fatalf("worker %d selector is %T", w, wk.sel)
		}
		if rep.pipe.Model == sys.Pipeline.Model {
			t.Fatalf("worker %d shares the model instance (must be a clone)", w)
		}
		if !rep.pipe.Model.Frozen() {
			t.Errorf("worker %d replica not marked frozen", w)
		}
		got := rep.pipe.Model.Net.Params()
		for i := range src {
			if src[i].Value != got[i].Value {
				t.Fatalf("worker %d param %d (%s) copied instead of shared", w, i, src[i].Name)
			}
		}
	}
}

func TestEngineSelectorInterchangeability(t *testing.T) {
	sys := quickSystem(t)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	scene := urban.Generate(cfg, urban.DefaultConditions(), 64)

	cases := []struct {
		name     string
		factory  SelectorFactory
		wantPred bool // monitored backends expose the segmentation
	}{
		{"pipeline", PipelineSelector(), true},
		{"hybrid", HybridSelector(), true},
		{"baseline canny", BaselineSelector(baseline.NewCanny()), false},
		{"baseline flatness", BaselineSelector(baseline.Flatness{}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(WithSystem(sys), WithWorkers(1), WithSelector(tc.factory))
			if err != nil {
				t.Fatal(err)
			}
			resp := eng.Select(context.Background(), SelectRequest{Scene: scene})
			if resp.Err != nil {
				t.Fatalf("select: %v", resp.Err)
			}
			res := resp.Result
			if tc.wantPred != (res.Pred != nil) {
				t.Errorf("prediction attached = %v, want %v", res.Pred != nil, tc.wantPred)
			}
			if res.Confirmed {
				z := res.Zone
				if z.SizePx <= 0 || z.X0 < 0 || z.Y0 < 0 ||
					z.X0+z.SizePx > scene.Image.W || z.Y0+z.SizePx > scene.Image.H {
					t.Errorf("confirmed zone out of bounds: %+v", z)
				}
			} else if res.State != core.Aborted {
				t.Errorf("unconfirmed result in state %v, want aborted", res.State)
			}
		})
	}

	t.Run("scene-requiring backends reject frame-only requests", func(t *testing.T) {
		for _, factory := range []SelectorFactory{HybridSelector(), BaselineSelector(baseline.NewCanny())} {
			eng, err := NewEngine(WithSystem(sys), WithWorkers(1), WithSelector(factory))
			if err != nil {
				t.Fatal(err)
			}
			resp := eng.Select(context.Background(), SelectRequest{Image: scene.Image, MPP: scene.MPP})
			if resp.Err == nil {
				t.Errorf("%s accepted a request without a scene", eng.SelectorName())
			}
		}
	})
}

// TestEngineBatchMatchesSequential is the API-redesign acceptance check:
// a concurrent batch over 4 workers must reproduce the sequential facade
// bit for bit, scene by scene.
func TestEngineBatchMatchesSequential(t *testing.T) {
	sys := quickSystem(t)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128

	const n = 8
	reqs := make([]SelectRequest, n)
	seq := make([]core.Result, n)
	for i := 0; i < n; i++ {
		scene := urban.Generate(cfg, urban.DefaultConditions(), 100+int64(i))
		reqs[i] = SelectRequest{Image: scene.Image, MPP: scene.MPP}
		seq[i] = sys.Pipeline.SelectAndVerify(scene.Image, scene.MPP)
	}

	eng, err := NewEngine(WithSystem(sys), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	resps := eng.SelectBatch(context.Background(), reqs)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("scene %d: %v", i, resp.Err)
		}
		if !reflect.DeepEqual(resp.Result, seq[i]) {
			t.Errorf("scene %d diverged from sequential run:\n  batch: %s\n  seq  : %s",
				i, describeForDiff(resp.Result), describeForDiff(seq[i]))
		}
	}
}

func describeForDiff(r core.Result) string {
	return fmt.Sprintf("%s (state %v, candidates %d, buffer %.1f m)",
		r.Describe(), r.State, r.CandidateCount, r.UsedBufferM)
}

func TestSystemReplicaIsIndependentAndIdentical(t *testing.T) {
	sys := quickSystem(t)
	rep, err := sys.Replica()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pipeline.Model == sys.Pipeline.Model || rep.Pipeline.Monitor == sys.Pipeline.Monitor {
		t.Fatal("replica shares perception state with the original")
	}
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	scene := urban.Generate(cfg, urban.DefaultConditions(), 77)
	a := sys.Pipeline.Model.Predict(scene.Image)
	b := rep.Pipeline.Model.Predict(scene.Image)
	if !reflect.DeepEqual(a.Pix, b.Pix) {
		t.Error("replica predicts differently from the original")
	}
}

// gateSelector parks every Select until release closes, then stamps the
// shared event sequence, so a test can order the selector's return against
// other events without sleeping.
type gateSelector struct {
	entered  chan<- struct{}
	release  <-chan struct{}
	seq      *atomic.Int32
	returned *atomic.Int32
}

func (g *gateSelector) Name() string { return "gate" }

func (g *gateSelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	g.entered <- struct{}{}
	<-g.release
	g.returned.Store(g.seq.Add(1))
	return core.Result{Confirmed: true, State: core.Landing}, nil
}

// TestEngineCloseDrainsAndRefuses pins Close's contract. Close called —
// from several goroutines at once — while a Select is on a worker returns
// only after that Select's selector has returned, and the Select keeps its
// answer. Afterwards Select, SelectBatch, NewSession and Advance on
// a session opened before Close all fail with ErrClosed: an error even in
// degraded mode, counted in Requests and Failed, never by the breaker.
// Every worker is back in the pool, and a further Close is a no-op.
func TestEngineCloseDrainsAndRefuses(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var seq, selReturned atomic.Int32
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(2), WithDegradedFallback(true),
		WithSelector(func(*System) (Selector, error) {
			return &gateSelector{entered: entered, release: release, seq: &seq, returned: &selReturned}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := eng.NewSession("uav-open")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	inflight := make(chan SelectResponse)
	go func() { inflight <- eng.Select(ctx, chaosFrame()) }()
	<-entered

	const closers = 3
	var closeReturned [closers]atomic.Int32
	closeErrs := make(chan error, closers)
	for i := range closers {
		go func() {
			err := eng.Close()
			closeReturned[i].Store(seq.Add(1))
			closeErrs <- err
		}()
	}
	// Close has begun once NewSession refuses.
	for {
		s, err := eng.NewSession("uav-probe")
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		runtime.Gosched()
	}
	for i := range closeReturned {
		if closeReturned[i].Load() != 0 {
			t.Fatalf("Close %d returned while a Select was still on its worker", i)
		}
	}
	close(release)
	if resp := <-inflight; resp.Err != nil || !resp.Result.Confirmed {
		t.Fatalf("in-flight Select: Err=%v Confirmed=%v, want its normal answer", resp.Err, resp.Result.Confirmed)
	}
	for range closers {
		if err := <-closeErrs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range closeReturned {
		if got, sel := closeReturned[i].Load(), selReturned.Load(); got <= sel {
			t.Errorf("Close %d returned at event %d, before the in-flight selector at event %d", i, got, sel)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	before := eng.Stats()
	refused := int64(0)
	for range DefaultBreakerThreshold + 1 {
		refused++
		if resp := eng.Select(ctx, chaosFrame()); !errors.Is(resp.Err, ErrClosed) || resp.Degraded {
			t.Fatalf("Select after Close: Err=%v Degraded=%v, want ErrClosed", resp.Err, resp.Degraded)
		}
	}
	for i, resp := range eng.SelectBatch(ctx, []SelectRequest{chaosFrame(), chaosFrame()}) {
		refused++
		if !errors.Is(resp.Err, ErrClosed) || resp.Degraded {
			t.Fatalf("SelectBatch request %d after Close: Err=%v Degraded=%v, want ErrClosed", i, resp.Err, resp.Degraded)
		}
	}
	if _, err := eng.NewSession("uav-late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewSession after Close: err = %v, want ErrClosed", err)
	}
	if adv := sess.Advance(ctx, chaosFrame()); !errors.Is(adv.Err, ErrClosed) || adv.Degraded {
		t.Fatalf("Advance after Close: Err=%v Degraded=%v, want ErrClosed", adv.Err, adv.Degraded)
	}

	st := eng.Stats()
	if st.Requests-before.Requests != refused || st.Failed-before.Failed != refused || st.Served != before.Served {
		t.Errorf("refused requests: Requests +%d, Failed +%d, Served +%d; want +%d, +%d, +0",
			st.Requests-before.Requests, st.Failed-before.Failed, st.Served-before.Served, refused, refused)
	}
	if st.Degraded != 0 || st.Frames != 0 || st.BreakerOpen != 0 || !eng.Healthy() {
		t.Errorf("after refusals: Degraded=%d Frames=%d BreakerOpen=%d Healthy=%v, want 0/0/0/true",
			st.Degraded, st.Frames, st.BreakerOpen, eng.Healthy())
	}
	if idle := eng.pool.idle(); idle != eng.Workers() {
		t.Errorf("closed engine has %d idle of %d workers", idle, eng.Workers())
	}
}
