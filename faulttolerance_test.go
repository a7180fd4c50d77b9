package safeland

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/faults"
	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// chaosFrame is a minimal valid request frame for stub-backend fault tests.
func chaosFrame() SelectRequest {
	return SelectRequest{Image: imaging.NewImage(32, 32), MPP: 1}
}

// TestBreakerTransitions pins the circuit-breaker state machine: threshold
// consecutive failures open it, cooldown recovery observations half-open
// it, a half-open failure re-opens it, a half-open success closes it.
func TestBreakerTransitions(t *testing.T) {
	var opened atomic.Int64
	b := newBreaker(3, 4, &opened)

	b.observe(false)
	b.observe(true) // success resets the consecutive count
	b.observe(false)
	b.observe(false)
	if !b.healthy() {
		t.Fatal("breaker opened below the consecutive-failure threshold")
	}
	b.observe(false)
	if b.healthy() || opened.Load() != 1 {
		t.Fatalf("breaker after 3 consecutive failures: healthy=%v opened=%d, want open/1", b.healthy(), opened.Load())
	}
	for i := 0; i < 4; i++ {
		if b.healthy() {
			t.Fatalf("breaker half-opened after only %d recovery observations", i)
		}
		b.observe(true)
	}
	if !b.healthy() {
		t.Fatal("breaker still open after the cooldown's recovery observations")
	}
	b.observe(false) // half-open probe fails: re-open immediately
	if b.healthy() || opened.Load() != 2 {
		t.Fatalf("failed probe: healthy=%v opened=%d, want open/2", b.healthy(), opened.Load())
	}
	for i := 0; i < 4; i++ {
		b.observe(true)
	}
	b.observe(true) // half-open probe succeeds: closed
	if !b.healthy() {
		t.Fatal("breaker not closed after a successful probe")
	}
	// Closed again: it takes a full threshold run to re-open.
	b.observe(false)
	b.observe(false)
	if !b.healthy() {
		t.Fatal("closed breaker re-opened below threshold after recovery")
	}
}

// TestEngineRetryRecoversTransientFault pins degraded-mode retry: an
// injected transient selector error on a request's first attempt is
// outrun by the bounded retry — the caller sees a clean response, the
// stats a retry, and nothing degrades.
func TestEngineRetryRecoversTransientFault(t *testing.T) {
	inj := faults.NewInjector(1, faults.Rates{})
	inj.ScheduleFault(faults.SelectorError, "shardA", 0)
	var calls atomic.Int32
	eng, err := NewEngine(
		WithSystem(stubSystem()), WithWorkers(1), WithSelector(stubFactory(&calls, nil)),
		WithShardName("shardA"), WithFaultInjector(inj), WithDegradedFallback(true),
		WithRetryBackoff(time.Microsecond, time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	resp := eng.Select(context.Background(), chaosFrame())
	if resp.Err != nil {
		t.Fatalf("faulted request not recovered: %v", resp.Err)
	}
	if resp.Retried != 1 || resp.Degraded {
		t.Fatalf("Retried=%d Degraded=%v, want 1/false", resp.Retried, resp.Degraded)
	}
	if !resp.Result.Confirmed {
		t.Error("recovered request lost its confirmed result")
	}
	st := eng.Stats()
	if st.Requests != 1 || st.Served != 1 || st.Failed != 0 || st.Retried != 1 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want Requests/Served/Retried 1, Failed/Degraded 0", st)
	}
}

// TestEngineDegradesOnBlackout pins the degraded-mode fallback: a shard
// blackout persists across the retry, so the request resolves with the FT
// fallback zone — marked Degraded with its cause, state core.Degraded, and
// never a confirmed zone.
func TestEngineDegradesOnBlackout(t *testing.T) {
	inj := faults.NewInjector(1, faults.Rates{})
	inj.ScheduleFault(faults.ShardBlackout, "shardB", 0)
	var calls atomic.Int32
	eng, err := NewEngine(
		WithSystem(stubSystem()), WithWorkers(1), WithSelector(stubFactory(&calls, nil)),
		WithShardName("shardB"), WithFaultInjector(inj), WithDegradedFallback(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	resp := eng.Select(context.Background(), chaosFrame())
	if resp.Err != nil {
		t.Fatalf("blackout frame hard-failed: %v", resp.Err)
	}
	if !resp.Degraded || resp.DegradedCause != "shard-blackout" {
		t.Fatalf("Degraded=%v cause=%q, want true/shard-blackout", resp.Degraded, resp.DegradedCause)
	}
	if resp.Result.Confirmed {
		t.Fatal("degraded verdict claims a confirmed zone")
	}
	if resp.Result.State != core.Degraded {
		t.Fatalf("degraded state = %v, want core.Degraded", resp.Result.State)
	}
	if calls.Load() != 0 {
		t.Errorf("blacked-out shard still reached the backend %d times", calls.Load())
	}
	if z := resp.Result.Zone; z.SizePx <= 0 || z.X0 < 0 || z.Y0 < 0 {
		t.Errorf("fallback zone malformed: %+v", z)
	}
	st := eng.Stats()
	if st.Degraded != 1 || st.Failed != 0 {
		t.Errorf("stats Degraded=%d Failed=%d, want 1/0", st.Degraded, st.Failed)
	}
	// A second, unfaulted request serves normally.
	clean := eng.Select(context.Background(), chaosFrame())
	if clean.Err != nil || clean.Degraded || clean.Retried != 0 {
		t.Errorf("clean request: Err=%v Degraded=%v Retried=%d", clean.Err, clean.Degraded, clean.Retried)
	}
}

// TestEngineFaultSurfacesWithoutDegradedMode pins the default contract:
// with degraded mode off, an injected fault surfaces as the fault error —
// no retry, no fallback.
func TestEngineFaultSurfacesWithoutDegradedMode(t *testing.T) {
	inj := faults.NewInjector(1, faults.Rates{})
	inj.ScheduleFault(faults.SelectorError, "shardC", 0)
	var calls atomic.Int32
	eng, err := NewEngine(
		WithSystem(stubSystem()), WithWorkers(1), WithSelector(stubFactory(&calls, nil)),
		WithShardName("shardC"), WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	resp := eng.Select(context.Background(), chaosFrame())
	fe := faults.AsInjected(resp.Err)
	if fe == nil || fe.Kind != faults.SelectorError {
		t.Fatalf("err = %v, want injected selector-error", resp.Err)
	}
	if resp.Retried != 0 || resp.Degraded {
		t.Errorf("fail-hard mode retried/degraded: %d/%v", resp.Retried, resp.Degraded)
	}
	if st := eng.Stats(); st.Failed != 1 || st.Retried != 0 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want Failed 1 only", st)
	}
}

// TestDegradedModeRefusesMalformedRequest pins that degraded mode answers
// for the shard's failures only: a request the backend rejects as
// malformed (no Scene for a baseline selector) stays an error on both
// Select and Session.Advance, exactly as with degradation off.
func TestDegradedModeRefusesMalformedRequest(t *testing.T) {
	eng, err := NewEngine(
		WithSystem(stubSystem()), WithWorkers(1), WithSelector(BaselineSelector(baseline.Flatness{})),
		WithDegradedFallback(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	req := SelectRequest{Image: imaging.NewImage(64, 64), MPP: 0.5}

	resp := eng.Select(context.Background(), req)
	if resp.Err == nil || resp.Degraded {
		t.Fatalf("Select: Err=%v Degraded=%v cause=%q, want an error", resp.Err, resp.Degraded, resp.DegradedCause)
	}
	sess, err := eng.NewSession("uav-malformed")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	adv := sess.Advance(context.Background(), req)
	if adv.Err == nil || adv.Degraded {
		t.Fatalf("Advance: Err=%v Degraded=%v cause=%q, want an error", adv.Err, adv.Degraded, adv.DegradedCause)
	}
	if st := eng.Stats(); st.Degraded != 0 || st.Failed != 1 || st.Frames != 0 {
		t.Errorf("stats Degraded=%d Failed=%d Frames=%d, want 0/1/0", st.Degraded, st.Failed, st.Frames)
	}
}

// TestEngineRejectsOddFrame pins that a frame the model cannot segment —
// odd width or height on the stride-2 stem — is the caller's error on the
// pipeline and hybrid backends, on Select and on a session advance: never
// a panic in the worker goroutine, and never an FT answer in degraded
// mode, not even when a shard blackout is scheduled on that very frame.
// The check runs before the attempt loop, so the odd frame never reaches
// a worker. The engine then serves the next even frame normally.
func TestEngineRejectsOddFrame(t *testing.T) {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 64, 64
	scene := urban.Generate(cfg, urban.DefaultConditions(), 7)
	even := SelectRequest{Scene: scene}
	for _, blackout := range []bool{false, true} {
		for _, tc := range []struct {
			sel       SelectorFactory
			odd, odd2 SelectRequest
		}{
			{PipelineSelector(),
				SelectRequest{Image: imaging.NewImage(63, 64), MPP: 0.5},
				SelectRequest{Image: imaging.NewImage(64, 63), MPP: 0.5}},
			{HybridSelector(),
				SelectRequest{Scene: &urban.Scene{Image: imaging.NewImage(63, 64), MPP: 0.5}},
				SelectRequest{Scene: &urban.Scene{Image: imaging.NewImage(64, 63), MPP: 0.5}}},
		} {
			opts := []Option{WithSystem(stubSystem()), WithWorkers(1), WithSelector(tc.sel),
				WithDegradedFallback(true), WithShardName("shardX")}
			if blackout {
				// The odd Select and the odd advance are each frame 0 of
				// their stream, the frame the blackout takes.
				inj := faults.NewInjector(1, faults.Rates{})
				inj.ScheduleFault(faults.ShardBlackout, "shardX", 0)
				opts = append(opts, WithFaultInjector(inj))
			}
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s (blackout %v)", eng.SelectorName(), blackout)
			ctx := context.Background()
			if resp := eng.Select(ctx, tc.odd); !errors.Is(resp.Err, errBadRequest) || resp.Degraded {
				t.Fatalf("%s: odd Select Err=%v Degraded=%v cause=%q, want a malformed-request error",
					name, resp.Err, resp.Degraded, resp.DegradedCause)
			}
			if resp := eng.Select(ctx, even); resp.Err != nil || resp.Degraded {
				t.Fatalf("%s: even Select after an odd one: Err=%v Degraded=%v", name, resp.Err, resp.Degraded)
			}
			sess, err := eng.NewSession("uav-odd")
			if err != nil {
				t.Fatal(err)
			}
			if adv := sess.Advance(ctx, tc.odd2); !errors.Is(adv.Err, errBadRequest) || adv.Degraded {
				t.Fatalf("%s: odd Advance Err=%v Degraded=%v cause=%q, want a malformed-request error",
					name, adv.Err, adv.Degraded, adv.DegradedCause)
			}
			if adv := sess.Advance(ctx, even); adv.Err != nil || adv.Degraded {
				t.Fatalf("%s: even Advance after an odd one: Err=%v Degraded=%v", name, adv.Err, adv.Degraded)
			}
			if st := eng.Stats(); st.Degraded != 0 || st.Failed != 1 || st.Served != 1 || st.Frames != 1 {
				t.Errorf("%s: stats Degraded=%d Failed=%d Served=%d Frames=%d, want 0/1/1/1", name, st.Degraded, st.Failed, st.Served, st.Frames)
			}
			sess.Close()
			eng.Close()
		}
	}
}

// TestSessionChaosRetryAndDegrade drives a descent session through the
// fault points: a selector error on a warm frame recovers via one cold
// retry, a shard blackout degrades the frame to the FT fallback, and the
// whole faulted descent replays byte-identically under the same injector
// seed and schedule.
func TestSessionChaosRetryAndDegrade(t *testing.T) {
	sys := quickSystem(t)
	scene := descentScene(42)
	frames := descentFrames(scene.Image, 3, 5)

	run := func() []SessionResponse {
		inj := faults.NewInjector(7, faults.Rates{})
		inj.ScheduleFault(faults.SelectorError, "uav-chaos", 1)
		inj.ScheduleFault(faults.ShardBlackout, "shardZ", 2)
		eng, err := NewEngine(
			WithSystem(sys), WithWorkers(1),
			WithShardName("shardZ"), WithFaultInjector(inj), WithDegradedFallback(true),
			WithRetryBackoff(time.Microsecond, time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		sess, err := eng.NewSession("uav-chaos")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		out := make([]SessionResponse, 0, len(frames))
		for k, f := range frames {
			resp := sess.Advance(context.Background(), SelectRequest{Image: f, MPP: scene.MPP})
			if resp.Err != nil {
				t.Fatalf("frame %d hard-failed: %v", k, resp.Err)
			}
			out = append(out, resp)
		}
		if st := eng.Stats(); st.Frames != 3 || st.Retried != 1 || st.Degraded != 1 {
			t.Fatalf("stats Frames=%d Retried=%d Degraded=%d, want 3/1/1", st.Frames, st.Retried, st.Degraded)
		}
		return out
	}

	resps := run()
	if resps[0].Retried != 0 || resps[0].Degraded {
		t.Errorf("frame 0 should be clean: %+v", resps[0])
	}
	if resps[1].Retried != 1 || resps[1].Degraded || resps[1].Reused {
		t.Errorf("frame 1: Retried=%d Degraded=%v Reused=%v, want retry-recovered cold frame",
			resps[1].Retried, resps[1].Degraded, resps[1].Reused)
	}
	if !resps[2].Degraded || resps[2].DegradedCause != "shard-blackout" {
		t.Errorf("frame 2: Degraded=%v cause=%q, want blackout degradation", resps[2].Degraded, resps[2].DegradedCause)
	}
	if resps[2].Result.Confirmed || resps[2].Result.State != core.Degraded {
		t.Errorf("frame 2 degraded verdict: Confirmed=%v State=%v", resps[2].Result.Confirmed, resps[2].Result.State)
	}

	// Same seed, same schedule, fresh engine: the chaos run replays
	// byte-identically.
	again := run()
	for k := range resps {
		if !reflect.DeepEqual(resps[k].Result, again[k].Result) ||
			resps[k].Retried != again[k].Retried || resps[k].Degraded != again[k].Degraded {
			t.Fatalf("frame %d: chaos replay diverged", k)
		}
	}
}

// TestRouterSpilloverOnOpenBreaker pins health-aware failover: a
// breaker-open home shard rejects with ErrShardUnhealthy, the router spills
// the vehicle to a healthy shard (counting Spilled on the home shard), and
// enough placement knocks half-open the breaker again.
func TestRouterSpilloverOnOpenBreaker(t *testing.T) {
	e1, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithShardName("s0"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithShardName("s1"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	homeID := vehicleHomedOn(t, r, e1)
	for i := 0; i < DefaultBreakerThreshold; i++ {
		e1.health.observe(false)
	}
	if e1.Healthy() || !e2.Healthy() {
		t.Fatalf("shard health = %v/%v, want open/closed", e1.Healthy(), e2.Healthy())
	}
	if _, err := e1.NewSession("direct"); !errors.Is(err, ErrShardUnhealthy) {
		t.Fatalf("open-breaker NewSession err = %v, want ErrShardUnhealthy", err)
	}

	sess, err := r.NewSession(homeID)
	if err != nil {
		t.Fatalf("router did not spill around the open breaker: %v", err)
	}
	defer sess.Close()
	if sess.eng != e2 {
		t.Fatal("spilled session not placed on the healthy shard")
	}
	st := r.Stats()
	if st[0].Spilled != 1 || st[1].Sessions != 1 {
		t.Errorf("Spilled=%d shard1 Sessions=%d, want 1/1", st[0].Spilled, st[1].Sessions)
	}
	if st[0].BreakerOpen != 1 || st[0].SessionRejects == 0 {
		t.Errorf("home shard BreakerOpen=%d SessionRejects=%d", st[0].BreakerOpen, st[0].SessionRejects)
	}

	// Keep knocking: within cooldown more attempts the breaker half-opens
	// and admits a probe placement.
	var probe *Session
	for i := 0; i < DefaultBreakerCooldown+1; i++ {
		if s, err := e1.NewSession(fmt.Sprintf("probe-%d", i)); err == nil {
			probe = s
			break
		}
	}
	if probe == nil {
		t.Fatal("breaker never half-opened for a probe placement")
	}
	probe.Close()
}

// TestRouterSpilloverOnSaturation pins the ErrSessionLimit spillover arm:
// a full home shard sheds the vehicle to the least-loaded shard instead of
// surfacing the rejection.
func TestRouterSpilloverOnSaturation(t *testing.T) {
	e1, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1), WithMaxSessions(1))
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

	first := vehicleHomedOn(t, r, e1)
	s1, err := r.NewSession(first)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	second := vehicleHomedOn(t, r, e1)
	for second == first {
		second = vehicleHomedOn(t, r, e1)
	}
	s2, err := r.NewSession(second)
	if err != nil {
		t.Fatalf("router did not spill around the saturated shard: %v", err)
	}
	defer s2.Close()
	if s2.eng != e2 {
		t.Fatal("overflow session not placed on the other shard")
	}
	if st := r.Stats(); st[0].Spilled != 1 {
		t.Errorf("home shard Spilled = %d, want 1", st[0].Spilled)
	}
}

// vehicleHomedOn returns a fresh vehicle ID whose home shard is eng.
// Successive calls return distinct IDs.
var vehicleSeq atomic.Int64

func vehicleHomedOn(t *testing.T, r *Router, eng *Engine) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("uav-%d", vehicleSeq.Add(1))
		if r.Engine(id) == eng {
			return id
		}
	}
	t.Fatal("no vehicle ID hashed to the requested shard")
	return ""
}

// TestSessionFleetChaosHammer is the -race chaos drill: a two-shard fleet
// serves concurrent descents under random injected faults (selector
// errors, replica stalls, shard blackouts) while safety triggers fire on
// random sessions mid-advance and the faulted shard's breaker flaps. It
// asserts the degraded-mode availability contract — no hard-failed frames,
// no degraded frame claiming a confirmed zone, no lost responses — and
// that every worker replica is back in its pool afterwards.
func TestSessionFleetChaosHammer(t *testing.T) {
	sys := quickSystem(t)
	scene := descentScene(42)
	const vehicles, frames = 6, 4

	newShard := func(name string) *Engine {
		inj := faults.NewInjector(99, faults.Rates{
			SelectorError: 0.15, ReplicaStall: 0.1, ShardBlackout: 0.1,
		})
		eng, err := NewEngine(
			WithSystem(sys), WithWorkers(2),
			WithShardName(name), WithFaultInjector(inj), WithDegradedFallback(true),
			WithRetryBackoff(time.Microsecond, time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	e1, e2 := newShard("shard0"), newShard("shard1")
	r, err := NewRouter(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var served, degraded atomic.Int64
	var wg sync.WaitGroup
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			trig := NewSafetyTrigger()
			sess, err := r.NewSession(fmt.Sprintf("uav-%02d", v), WithSessionTrigger(trig))
			if err != nil {
				t.Errorf("vehicle %d rejected: %v", v, err)
				return
			}
			defer sess.Close()
			if v%2 == 0 {
				// Half the fleet fires its safety trigger mid-descent, at a
				// per-vehicle pseudo-random moment.
				delay := time.Duration(rand.New(rand.NewSource(int64(v))).Intn(30)) * time.Millisecond
				go func() {
					time.Sleep(delay)
					trig.Trigger("chaos drill")
				}()
			}
			for _, f := range descentFrames(scene.Image, frames, int64(100+v)) {
				checkChaosResponse(t, v, sess.Advance(context.Background(), SelectRequest{Image: f, MPP: scene.MPP}), &served, &degraded)
			}
		}(v)
	}
	wg.Wait()

	if got := served.Load(); got != vehicles*frames {
		t.Errorf("served %d responses for %d frames — responses were lost", got, vehicles*frames)
	}
	for i, e := range []*Engine{e1, e2} {
		if idle := e.pool.idle(); idle != e.Workers() {
			t.Errorf("shard %d leaked replicas: %d idle of %d workers", i, idle, e.Workers())
		}
	}
	st := r.Stats()
	var frameSum int64
	for _, s := range st {
		frameSum += s.Frames
	}
	if frameSum != vehicles*frames {
		t.Errorf("shard frame counters sum to %d, want %d", frameSum, vehicles*frames)
	}
	t.Logf("degraded %d/%d frames; per-shard stats: %+v / %+v", degraded.Load(), vehicles*frames, st[0], st[1])
}

func checkChaosResponse(t *testing.T, vehicle int, resp SessionResponse, served, degraded *atomic.Int64) {
	t.Helper()
	served.Add(1)
	if resp.Err != nil {
		t.Errorf("vehicle %d: frame hard-failed under chaos: %v", vehicle, resp.Err)
		return
	}
	if resp.Degraded {
		degraded.Add(1)
		if resp.Result.Confirmed {
			t.Errorf("vehicle %d: degraded frame claims a confirmed zone", vehicle)
		}
		if resp.Result.State != core.Degraded {
			t.Errorf("vehicle %d: degraded frame state = %v", vehicle, resp.Result.State)
		}
		if resp.DegradedCause == "" {
			t.Errorf("vehicle %d: degraded frame missing cause", vehicle)
		}
	}
}
