package safeland

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
	w := eng.pool.tryAcquire()
	if w == nil {
		t.Fatal("no free replica in a fresh pool")
	}
	defer eng.pool.release(w)
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
	if st.Corpus != (CorpusStats{}) {
		t.Errorf("engine without a corpus source reports %+v", st.Corpus)
	}
}

// TestEngineStatsCountsServeDrops pins the Serve side of the accounting: a
// request the dispatcher consumed from in but dropped at cancellation must
// count as accepted and failed, exactly what the same cancellation costs a
// queued SelectBatch request. Whichever way the cancellation race resolves
// for the second request — dropped by the dispatcher, or tagged and then
// failed fast on a worker — the totals are identical, so the assertions
// are deterministic.
func TestEngineStatsCountsServeDrops(t *testing.T) {
	started := make(chan struct{})
	blocking := func(*System) (Selector, error) {
		return &stubSelector{calls: new(atomic.Int32), delay: func(SelectRequest) time.Duration {
			close(started)
			return time.Hour // released by cancellation
		}}, nil
	}
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithSelector(blocking))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan SelectRequest)
	out := eng.Serve(ctx, in)

	in <- SelectRequest{MPP: 1} // reaches the single worker and blocks
	<-started
	in <- SelectRequest{MPP: 2} // consumed by the dispatcher, never served
	cancel()
	close(in)
	resps := Gather(out, 2)

	if !errors.Is(resps[0].Err, context.Canceled) {
		t.Fatalf("first request err = %v, want context.Canceled", resps[0].Err)
	}
	if resps[1].Err == nil {
		t.Fatal("second request reported success despite cancellation")
	}
	st := eng.Stats()
	if st.Requests != 2 || st.Served != 1 || st.Failed != 2 {
		t.Errorf("stats after cancelled Serve = %+v, want 2 requests / 1 served / 2 failed", st)
	}
}

func TestEngineStatsSurfacesCorpusSource(t *testing.T) {
	src := CorpusStats{Generated: 27, Hits: 216, DiskHits: 3, Resident: 27}
	var snapshots atomic.Int32
	eng, err := NewEngine(
		WithSystem(stubSystem()), WithWorkers(1),
		WithCorpusStats(func() CorpusStats { snapshots.Add(1); return src }),
	)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Corpus != src {
		t.Errorf("corpus stats = %+v, want %+v", st.Corpus, src)
	}
	if got := st.Corpus.Lookups(); got != 27+216+3 {
		t.Errorf("lookups = %d, want %d", got, 27+216+3)
	}
	if snapshots.Load() != 1 {
		t.Errorf("stats source sampled %d times for one Stats call", snapshots.Load())
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
		if resp.Index != i || resp.Result.CandidateCount != i+1 {
			t.Errorf("response %d carries index %d / payload %d", i, resp.Index, resp.Result.CandidateCount)
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
}

func TestEngineRequestDeadline(t *testing.T) {
	var calls atomic.Int32
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithSelector(stubFactory(&calls, nil)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		req     SelectRequest
		wantErr error
	}{
		{"expired deadline", SelectRequest{MPP: 1, Deadline: time.Now().Add(-time.Second)}, context.DeadlineExceeded},
		{"no deadline", SelectRequest{MPP: 1}, nil},
		{"future deadline", SelectRequest{MPP: 1, Deadline: time.Now().Add(time.Minute)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := eng.Select(context.Background(), tc.req)
			if resp.Err != tc.wantErr {
				t.Errorf("err = %v, want %v", resp.Err, tc.wantErr)
			}
		})
	}
}

func TestEngineServeStreams(t *testing.T) {
	var calls atomic.Int32
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(3), WithSelector(stubFactory(&calls, nil)))
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan SelectRequest)
	out := eng.Serve(context.Background(), in)
	const n = 7
	go func() {
		for i := 0; i < n; i++ {
			in <- SelectRequest{MPP: float64(i + 1)}
		}
		close(in)
	}()
	seen := map[int]bool{}
	for resp := range out {
		if resp.Err != nil {
			t.Fatalf("response error: %v", resp.Err)
		}
		if seen[resp.Index] {
			t.Fatalf("index %d delivered twice", resp.Index)
		}
		seen[resp.Index] = true
		// Index must record arrival order: the i-th streamed request
		// carried MPP i+1, which the stub echoes back.
		if resp.Result.CandidateCount != resp.Index+1 {
			t.Errorf("index %d tagged onto request %d", resp.Index, resp.Result.CandidateCount-1)
		}
	}
	if len(seen) != n {
		t.Fatalf("got %d responses, want %d (indices %v)", len(seen), n, seen)
	}
}

func TestEngineServeDeliversCompletedOnCancel(t *testing.T) {
	var calls atomic.Int32
	delay := func(SelectRequest) time.Duration { return 20 * time.Millisecond }
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(2), WithSelector(stubFactory(&calls, delay)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan SelectRequest)
	out := eng.Serve(ctx, in)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- SelectRequest{MPP: float64(i + 1)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	first, ok := <-out
	if !ok || first.Err != nil {
		t.Fatalf("first response: ok=%v err=%v", ok, first.Err)
	}
	cancel()
	// The channel must still close, delivering every dequeued request's
	// response on the way; go test's timeout guards against a hang.
	for range out {
	}
}

// TestEngineSelectCancelsMidTrial pins the ctx-aware perception stack: a
// context cancelled while the pipeline is mid-selection (not merely queued)
// must surface ctx.Err() promptly instead of running the remaining
// Monte-Carlo trials to completion.
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

	// Uncancelled baseline: how long a full selection takes, and its result.
	// The first selection warms the replica's arena; the deadline is taken
	// from the second, which is what a served frame costs.
	full := eng.Select(context.Background(), SelectRequest{Image: scene.Image, MPP: scene.MPP})
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	if len(full.Result.Trials) == 0 {
		t.Fatal("the baseline selection ran no Monte-Carlo trial: the scene no longer exercises a mid-trial cancellation")
	}
	warm := eng.Select(context.Background(), SelectRequest{Image: scene.Image, MPP: scene.MPP})
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}

	// A timeout of a small fraction of the full selection lands early in
	// it: the worker is free, so the request dequeues immediately and the
	// deadline expires inside the perception stack, before the last layer
	// of the last trial checks the context.
	timeout := warm.Elapsed / 20
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	resp := eng.Select(ctx, SelectRequest{Image: scene.Image, MPP: scene.MPP})
	if resp.Err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", resp.Err)
	}
	// "Promptly": well under the full selection time. One network layer is
	// the cancellation granularity; allow half the full run as slack.
	if waited := time.Since(start); waited > full.Elapsed/2+50*time.Millisecond {
		t.Errorf("cancelled select took %v of a %v full run", waited, full.Elapsed)
	}

	// The engine stays serviceable and deterministic after a cancellation.
	again := eng.Select(context.Background(), SelectRequest{Image: scene.Image, MPP: scene.MPP})
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
	for w := 0; w < eng.Workers(); w++ {
		wk := eng.pool.tryAcquire()
		if wk == nil {
			t.Fatalf("worker %d: no free replica in a fresh pool", w)
		}
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
		defer eng.pool.release(wk)
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

// TestServeMatchesSelectBatch is the streaming-parity acceptance check: a
// request stream served through Serve must reproduce SelectBatch bit for
// bit, request for request, at 1 worker and at a full pool — the property
// that lets the experiment fleets move to the pipelined path without any
// report drifting.
func TestServeMatchesSelectBatch(t *testing.T) {
	sys := quickSystem(t)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	const n = 6
	reqs := make([]SelectRequest, n)
	for i := range reqs {
		scene := urban.Generate(cfg, urban.DefaultConditions(), 700+int64(i))
		reqs[i] = SelectRequest{Image: scene.Image, MPP: scene.MPP}
	}

	refEng, err := NewEngine(WithSystem(sys), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := refEng.SelectBatch(context.Background(), reqs)

	for _, workers := range []int{1, 4} {
		eng, err := NewEngine(WithSystem(sys), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan SelectRequest)
		go func() {
			defer close(in)
			for _, req := range reqs {
				in <- req
			}
		}()
		resps := Gather(eng.Serve(context.Background(), in), n)
		if len(resps) != n {
			t.Fatalf("%d workers: gathered %d responses, want %d", workers, len(resps), n)
		}
		for i, resp := range resps {
			if resp.Err != nil {
				t.Fatalf("%d workers, request %d: %v", workers, i, resp.Err)
			}
			if resp.Index != i {
				t.Fatalf("%d workers: slot %d holds index %d", workers, i, resp.Index)
			}
			if !reflect.DeepEqual(resp.Result, ref[i].Result) {
				t.Errorf("%d workers, request %d diverged from SelectBatch:\n  serve: %s\n  batch: %s",
					workers, i, describeForDiff(resp.Result), describeForDiff(ref[i].Result))
			}
		}
	}
}

// TestGatherMarksMissingResponses pins Gather's post-cancellation
// contract: slots whose requests never produced a response carry an error
// instead of a zero value masquerading as success.
func TestGatherMarksMissingResponses(t *testing.T) {
	out := make(chan SelectResponse, 1)
	out <- SelectResponse{Index: 2, Selector: "stub"}
	close(out)
	resps := Gather(out, 4)
	if len(resps) != 4 {
		t.Fatalf("gathered %d slots, want 4", len(resps))
	}
	for i, resp := range resps {
		if resp.Index != i {
			t.Errorf("slot %d holds index %d", i, resp.Index)
		}
		if i == 2 {
			if resp.Err != nil {
				t.Errorf("delivered slot carries error %v", resp.Err)
			}
			continue
		}
		if !errors.Is(resp.Err, ErrNoResponse) {
			t.Errorf("undelivered slot %d carries %v, want ErrNoResponse", i, resp.Err)
		}
	}
	// Responses beyond n grow the slice.
	out2 := make(chan SelectResponse, 1)
	out2 <- SelectResponse{Index: 3}
	close(out2)
	if got := Gather(out2, 0); len(got) != 4 || got[3].Err != nil || got[0].Err == nil {
		t.Errorf("growth path wrong: %+v", got)
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
// answer. Afterwards Select, SelectBatch, Serve, NewSession and Advance on
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
	in := make(chan SelectRequest, 1)
	in <- chaosFrame()
	close(in)
	for resp := range eng.Serve(ctx, in) {
		refused++
		if !errors.Is(resp.Err, ErrClosed) || resp.Degraded {
			t.Fatalf("Serve after Close: Err=%v Degraded=%v, want ErrClosed", resp.Err, resp.Degraded)
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
