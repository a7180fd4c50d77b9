package safeland

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// cloneImage deep-copies a frame so descent tests can mutate it.
func cloneImage(img *imaging.Image) *imaging.Image {
	out := imaging.NewImage(img.W, img.H)
	copy(out.Pix, img.Pix)
	return out
}

// descentFrames synthesizes n consecutive frames of a descent over base:
// each frame clones its predecessor and mildly perturbs a small patch whose
// position advances with the frame index — consecutive frames differ in a
// locality-bounded region (the shape session reuse is built for) without
// the perturbation looking like an anomaly to the monitor.
func descentFrames(base *imaging.Image, n int, seed int64) []*imaging.Image {
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v float32) float32 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	frames := make([]*imaging.Image, n)
	prev := base
	for k := range frames {
		f := cloneImage(prev)
		const patch = 10
		x0 := (7 + 13*k) % (f.W - patch)
		y0 := (11 + 9*k) % (f.H - patch)
		for y := y0; y < y0+patch; y++ {
			for x := x0; x < x0+patch; x++ {
				p := &f.Pix[y*f.W+x]
				p.R = clamp(p.R + (rng.Float32()-0.5)*0.06)
				p.G = clamp(p.G + (rng.Float32()-0.5)*0.06)
				p.B = clamp(p.B + (rng.Float32()-0.5)*0.06)
			}
		}
		frames[k] = f
		prev = f
	}
	return frames
}

func descentScene(seed int64) *urban.Scene {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	return urban.Generate(cfg, urban.DefaultConditions(), seed)
}

// TestSessionReuseDisabledMatchesSelect pins the cold path: a frame whose
// size differs from its predecessor's restarts the stream, so it is never
// reused — even after a confirmed zone — and is byte-identical to an
// independent Select of the same request.
func TestSessionReuseDisabledMatchesSelect(t *testing.T) {
	sys := quickSystem(t)
	// Seed 44 is a scene where the quick-trained system confirms a zone, so
	// the cold restarts below skip a prior that would otherwise be reused.
	scene := descentScene(44)
	eng, err := NewEngine(WithSystem(sys), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.NewSession("uav-parity")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx := context.Background()
	skipped := 0
	prevConfirmed := false
	for k, f := range descentFrames(scene.Image, 4, 9) {
		if k%2 == 1 {
			f = f.Crop(0, 0, f.W-8, f.H-8)
		}
		req := SelectRequest{Image: f, MPP: scene.MPP}
		resp := sess.Advance(ctx, req)
		if resp.Err != nil {
			t.Fatalf("frame %d: %v", k, resp.Err)
		}
		if resp.Reused {
			t.Fatalf("frame %d: a frame that changed size was served by the fast path", k)
		}
		if prevConfirmed {
			skipped++
		}
		want := eng.Select(ctx, req)
		if want.Err != nil {
			t.Fatalf("frame %d baseline: %v", k, want.Err)
		}
		if !reflect.DeepEqual(resp.Result, want.Result) {
			t.Fatalf("frame %d: session result diverged from independent Select", k)
		}
		prevConfirmed = monitorConfirmed(resp.Result)
	}
	if st := eng.Stats(); st.Frames != 4 || st.FramesReused != 0 {
		t.Errorf("stats Frames=%d FramesReused=%d, want 4/0", st.Frames, st.FramesReused)
	}
	if skipped == 0 {
		t.Error("no frame followed a confirmed zone; the cold restart was never exercised")
	}
}

// TestSessionReuseVerdictParity pins the temporal fast path: a reused
// frame's re-verification verdict is byte-identical to VerifyRegionCtx of
// the same zone crop on a fresh replica, and non-reused frames stay
// byte-identical to independent selects.
func TestSessionReuseVerdictParity(t *testing.T) {
	sys := quickSystem(t)
	// Seed 44 is a scene where the quick-trained system confirms a zone, so
	// the temporal fast path has a previous confirmation to re-verify.
	scene := descentScene(44)
	eng, err := NewEngine(WithSystem(sys), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.NewSession("uav-reuse")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A private replica provides the baseline verdicts.
	ref, err := sys.Replica()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var prevZone [3]int
	reused := 0
	for k, f := range descentFrames(scene.Image, 4, 9) {
		req := SelectRequest{Image: f, MPP: scene.MPP}
		resp := sess.Advance(ctx, req)
		if resp.Err != nil {
			t.Fatalf("frame %d: %v", k, resp.Err)
		}
		if resp.Reused {
			reused++
			if len(resp.Result.Trials) != 1 || resp.Result.CandidateCount != 1 {
				t.Fatalf("frame %d: fast path reported %d trials / %d candidates",
					k, len(resp.Result.Trials), resp.Result.CandidateCount)
			}
			x0, y0, size := resp.Result.Zone.CropRect(f.W, f.H)
			if [3]int{x0, y0, size} != prevZone {
				t.Fatalf("frame %d: fast path verified a different zone than the previous frame confirmed", k)
			}
			want, err := ref.Pipeline.Monitor.VerifyRegionCtx(ctx, f.Crop(x0, y0, size, size), ref.Pipeline.Rule)
			if err != nil {
				t.Fatalf("frame %d baseline verify: %v", k, err)
			}
			if !reflect.DeepEqual(resp.Result.Trials[0].Verdict, want) {
				t.Fatalf("frame %d: reused verdict diverged from the per-crop verification", k)
			}
		} else {
			baseline := eng.Select(ctx, req)
			if baseline.Err != nil {
				t.Fatalf("frame %d baseline: %v", k, baseline.Err)
			}
			if !reflect.DeepEqual(resp.Result, baseline.Result) {
				t.Fatalf("frame %d: full-path session result diverged from independent Select", k)
			}
		}
		if resp.Result.Confirmed {
			x0, y0, size := resp.Result.Zone.CropRect(f.W, f.H)
			prevZone = [3]int{x0, y0, size}
		}
	}
	st := eng.Stats()
	if int(st.FramesReused) != reused {
		t.Errorf("stats FramesReused=%d, responses reported %d", st.FramesReused, reused)
	}
	if reused == 0 {
		t.Error("temporal fast path never engaged; the test exercised nothing")
	}
	t.Logf("reused %d/4 frames", reused)
}

// TestSessionUsesEngineSelector pins that sessions honor WithSelector: a
// session frame without a monitor-confirmed prior goes to the engine's
// configured backend, never to a built-in pipeline.
func TestSessionUsesEngineSelector(t *testing.T) {
	var calls atomic.Int32
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithSelector(stubFactory(&calls, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.NewSession("uav-stub")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for k := 0; k < 3; k++ {
		resp := sess.Advance(context.Background(), SelectRequest{Image: imaging.NewImage(32, 32), MPP: 2})
		if resp.Err != nil {
			t.Fatalf("frame %d: %v", k, resp.Err)
		}
		if resp.Reused || resp.Result.CandidateCount != 2 {
			t.Fatalf("frame %d: Reused=%v CandidateCount=%d, want the stub's answer", k, resp.Reused, resp.Result.CandidateCount)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("stub selector called %d times for 3 session frames", got)
	}
	if st := eng.Stats(); st.Frames != 3 || st.Requests != 0 || st.Served != 0 {
		t.Errorf("stats Frames=%d Requests=%d Served=%d, want 3/0/0", st.Frames, st.Requests, st.Served)
	}
}

// TestSessionBaselineSelectorNeverReuses pins sessions over a baseline
// backend: every frame returns the baseline's pick, and none is Reused — a
// baseline zone carries no monitor trial to re-verify.
func TestSessionBaselineSelectorNeverReuses(t *testing.T) {
	scene := descentScene(42)
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithSelector(BaselineSelector(baseline.Flatness{})))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.NewSession("uav-baseline")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	req := SelectRequest{Scene: scene}
	want := eng.Select(ctx, req)
	if want.Err != nil || !want.Result.Confirmed {
		t.Fatalf("baseline Select: err=%v confirmed=%v", want.Err, want.Result.Confirmed)
	}
	for k := 0; k < 3; k++ {
		resp := sess.Advance(ctx, req)
		if resp.Err != nil {
			t.Fatalf("frame %d: %v", k, resp.Err)
		}
		if resp.Reused {
			t.Fatalf("frame %d: baseline pick reported as a re-verified zone", k)
		}
		if !reflect.DeepEqual(resp.Result, want.Result) {
			t.Fatalf("frame %d: session result %+v, baseline pick %+v", k, resp.Result, want.Result)
		}
	}
	if st := eng.Stats(); st.Frames != 3 || st.FramesReused != 0 {
		t.Errorf("stats Frames=%d FramesReused=%d, want 3/0", st.Frames, st.FramesReused)
	}
}

// waitForPreemptible blocks until a routine session frame holds a worker
// the pool may preempt (i.e. is on a worker replica).
func waitForPreemptible(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		e.pool.mu.Lock()
		n := 0
		for _, w := range e.pool.held {
			if w.preempt != nil {
				n++
			}
		}
		e.pool.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no routine advance registered for preemption")
		}
		time.Sleep(time.Millisecond)
	}
}

// busyUntilCancelled returns the pipeline backend with one change: its
// first selection keeps running real pipeline selections until its context
// is cancelled, and returns the cancellation error. A routine advance that
// draws it is in flight — somewhere inside the perception stack — whenever
// a test fires a trigger, instead of racing the trigger to completion; every
// later selection passes straight through.
func busyUntilCancelled() SelectorFactory {
	var first sync.Once
	return func(sys *System) (Selector, error) {
		inner, err := PipelineSelector()(sys)
		if err != nil {
			return nil, err
		}
		return &busySelector{Selector: inner, first: &first}, nil
	}
}

type busySelector struct {
	Selector
	first *sync.Once
}

func (s *busySelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	busy := false
	s.first.Do(func() { busy = true })
	if !busy {
		return s.Selector.Select(ctx, req)
	}
	for {
		if _, err := s.Selector.Select(ctx, req); err != nil {
			return core.Result{}, err
		}
	}
}

// TestSessionSafetyPreemptsRoutine pins the two priority classes: on a
// saturated pool, a safety-class advance preempts an in-flight routine
// advance mid-selection (the routine caller sees ErrPreempted) and is
// served on the freed replica.
func TestSessionSafetyPreemptsRoutine(t *testing.T) {
	sys := quickSystem(t)
	scene := descentScene(42)
	eng, err := NewEngine(WithSystem(sys), WithWorkers(1), WithSelector(busyUntilCancelled()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	routine, err := eng.NewSession("uav-routine")
	if err != nil {
		t.Fatal(err)
	}
	defer routine.Close()
	trig := NewSafetyTrigger()
	urgent, err := eng.NewSession("uav-urgent", WithSessionTrigger(trig))
	if err != nil {
		t.Fatal(err)
	}
	defer urgent.Close()

	req := SelectRequest{Image: scene.Image, MPP: scene.MPP}
	done := make(chan SessionResponse, 1)
	go func() { done <- routine.Advance(context.Background(), req) }()
	waitForPreemptible(t, eng)

	trig.Trigger("motor failure")
	resp := urgent.Advance(context.Background(), req)
	if resp.Err != nil {
		t.Fatalf("safety advance failed: %v", resp.Err)
	}
	if !resp.Safety {
		t.Error("safety advance not marked Safety")
	}

	victim := <-done
	if !errors.Is(victim.Err, ErrPreempted) {
		t.Fatalf("routine advance err = %v, want ErrPreempted", victim.Err)
	}
	if st := eng.Stats(); st.Preempted != 1 {
		t.Errorf("stats Preempted = %d, want 1", st.Preempted)
	}
}

// orderSelector serves stub frames whose MPP tags them: tag 1 runs until
// its context is cancelled, every other tag is recorded in serving order
// and confirmed at once.
type orderSelector struct {
	mu    *sync.Mutex
	order *[]float64
}

func (orderSelector) Name() string { return "order-stub" }

func (s orderSelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	if req.MPP == 1 {
		<-ctx.Done()
		return core.Result{}, ctx.Err()
	}
	s.mu.Lock()
	*s.order = append(*s.order, req.MPP)
	s.mu.Unlock()
	return core.Result{Confirmed: true, State: core.Landing}, nil
}

// TestSafetyPreemptionJumpsRoutineQueue pins the pool's promise to a safety
// frame: with the one worker held by a routine session frame and a routine
// Select queued behind it, a triggered session's advance preempts the
// frame (ErrPreempted, Preempted 1) and is served on the freed worker
// before the Select that queued first.
func TestSafetyPreemptionJumpsRoutineQueue(t *testing.T) {
	var mu sync.Mutex
	var order []float64
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1),
		WithSelector(func(*System) (Selector, error) { return orderSelector{mu: &mu, order: &order}, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	routine, err := eng.NewSession("uav-routine")
	if err != nil {
		t.Fatal(err)
	}
	defer routine.Close()
	trig := NewSafetyTrigger()
	urgent, err := eng.NewSession("uav-urgent", WithSessionTrigger(trig))
	if err != nil {
		t.Fatal(err)
	}
	defer urgent.Close()
	ctx := context.Background()
	frame := func(tag float64) SelectRequest { return SelectRequest{Image: imaging.NewImage(32, 32), MPP: tag} }

	victim := make(chan SessionResponse, 1)
	go func() { victim <- routine.Advance(ctx, frame(1)) }()
	waitForPreemptible(t, eng)
	queued := make(chan SelectResponse, 1)
	go func() { queued <- eng.Select(ctx, frame(2)) }()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		eng.pool.mu.Lock()
		n := len(eng.pool.routine)
		eng.pool.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the routine Select never queued")
		}
	}

	trig.Trigger("motor failure")
	if resp := urgent.Advance(ctx, frame(3)); resp.Err != nil || !resp.Safety {
		t.Fatalf("safety advance: Err=%v Safety=%v", resp.Err, resp.Safety)
	}
	if v := <-victim; !errors.Is(v.Err, ErrPreempted) {
		t.Fatalf("routine frame err = %v, want ErrPreempted", v.Err)
	}
	if q := <-queued; q.Err != nil {
		t.Fatalf("queued Select: %v", q.Err)
	}
	if want := []float64{3, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("served tags %v, want %v: the safety frame must jump the routine queue", order, want)
	}
	if st := eng.Stats(); st.Preempted != 1 {
		t.Errorf("stats Preempted = %d, want 1", st.Preempted)
	}
}

// TestSessionTriggerAbortsOwnAdvance pins the mid-trial activation path: a
// trigger firing while its own session's routine advance is in flight
// aborts that advance, and the retry runs in the safety class.
func TestSessionTriggerAbortsOwnAdvance(t *testing.T) {
	sys := quickSystem(t)
	scene := descentScene(42)
	eng, err := NewEngine(WithSystem(sys), WithWorkers(1), WithSelector(busyUntilCancelled()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	trig := NewSafetyTrigger()
	sess, err := eng.NewSession("uav-own", WithSessionTrigger(trig))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	req := SelectRequest{Image: scene.Image, MPP: scene.MPP}
	done := make(chan SessionResponse, 1)
	go func() { done <- sess.Advance(context.Background(), req) }()
	waitForPreemptible(t, eng)

	if !trig.Trigger("geofence breach") {
		t.Fatal("first Trigger call reported already fired")
	}
	if trig.Trigger("other") {
		t.Error("second Trigger call claimed to fire the latch")
	}
	if got := trig.Reason(); got != "geofence breach" {
		t.Errorf("Reason = %q, want first reason", got)
	}

	aborted := <-done
	if !errors.Is(aborted.Err, ErrPreempted) {
		t.Fatalf("in-flight advance err = %v, want ErrPreempted", aborted.Err)
	}
	retry := sess.Advance(context.Background(), req)
	if retry.Err != nil {
		t.Fatalf("safety retry failed: %v", retry.Err)
	}
	if !retry.Safety {
		t.Error("retry after trigger not in safety class")
	}
}

// TestSessionAdmissionControl pins the backpressure contract: the
// admission limit rejects immediately with ErrSessionLimit, the rejection
// is counted, and closing a session frees its slot.
func TestSessionAdmissionControl(t *testing.T) {
	eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithMaxSessions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	s1, err := eng.NewSession("v1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.NewSession("v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewSession("v3"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third session err = %v, want ErrSessionLimit", err)
	}
	st := eng.Stats()
	if st.Sessions != 2 || st.SessionRejects != 1 {
		t.Fatalf("stats Sessions=%d SessionRejects=%d, want 2/1", st.Sessions, st.SessionRejects)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	s3, err := eng.NewSession("v3")
	if err != nil {
		t.Fatalf("session after Close rejected: %v", err)
	}
	defer s3.Close()
	defer s1.Close()

	if resp := s2.Advance(context.Background(), SelectRequest{}); !errors.Is(resp.Err, ErrSessionClosed) {
		t.Errorf("Advance on closed session err = %v, want ErrSessionClosed", resp.Err)
	}
}

// TestRouterShardsByVehicle pins the shard router: vehicle→engine mapping
// is deterministic, sessions land on the mapped shard, and both shards see
// traffic from a spread of vehicle IDs.
func TestRouterShardsByVehicle(t *testing.T) {
	if _, err := NewRouter(); err == nil {
		t.Error("NewRouter() with no engines did not fail")
	}
	e1, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != 2 {
		t.Fatalf("Shards = %d, want 2", r.Shards())
	}

	hit := map[*Engine]int{}
	for i := 0; i < 16; i++ {
		id := string(rune('a'+i)) + "-uav"
		shard := r.Engine(id)
		if again := r.Engine(id); again != shard {
			t.Fatalf("vehicle %q routed to two different shards", id)
		}
		hit[shard]++
		sess, err := r.NewSession(id)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
	}
	if len(hit) != 2 {
		t.Errorf("16 vehicles all hashed to one shard; want both used")
	}
	stats := r.Stats()
	if got := int(stats[0].Sessions + stats[1].Sessions); got != 16 {
		t.Errorf("open sessions across shards = %d, want 16", got)
	}
	if int(stats[0].Sessions) != hit[e1] || int(stats[1].Sessions) != hit[e2] {
		t.Errorf("per-shard sessions (%d,%d) disagree with routing (%d,%d)",
			stats[0].Sessions, stats[1].Sessions, hit[e1], hit[e2])
	}
}
